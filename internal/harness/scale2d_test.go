package harness

import (
	"testing"

	"repro/internal/partition"
)

// TestScale2DReducesTraffic is the communication-avoiding pin CI runs: at 8
// ranks on the harness RMAT graph, the busiest rank under the 2D
// checkerboard must not ship more bytes than under the 1D edge-block
// baseline, for BFS and WCC, and both layouts must produce byte-identical
// canonical answers. The 4×2 grid bounds each exchange to a rank's row or
// column — if 2D ever loses here, the sub-group exchange has regressed.
func TestScale2DReducesTraffic(t *testing.T) {
	cfg := tinyConfig()
	const p = 8
	oneD, err := Scale2DRaw(cfg, p, "1d-mp", partition.EdgeBlock)
	if err != nil {
		t.Fatal(err)
	}
	twoD, err := Scale2DRaw(cfg, p, "2d", partition.Grid2D)
	if err != nil {
		t.Fatal(err)
	}
	if len(oneD) != len(twoD) || len(oneD) != len(scale2DJobs) {
		t.Fatalf("entry counts diverge: %d vs %d", len(oneD), len(twoD))
	}
	for i := range oneD {
		a, b := oneD[i], twoD[i]
		if a.Analytic != b.Analytic {
			t.Fatalf("entry order diverges: %s vs %s", a.Analytic, b.Analytic)
		}
		if a.Grid != "8x1" || b.Grid != "4x2" {
			t.Fatalf("%s: grids %q and %q, want 8x1 and 4x2 at 8 ranks", a.Analytic, a.Grid, b.Grid)
		}
		if a.Canonical == "" || a.Canonical != b.Canonical {
			t.Fatalf("%s answers diverge across layouts:\n  1d: %s\n  2d: %s", a.Analytic, a.Canonical, b.Canonical)
		}
		if b.MaxRankMiB > a.MaxRankMiB {
			t.Fatalf("%s: busiest 2d rank shipped %.4f MiB, 1d baseline %.4f MiB: the checkerboard must not exceed the 1d layout per rank",
				a.Analytic, b.MaxRankMiB, a.MaxRankMiB)
		}
		if a.SentMiB == 0 || b.SentMiB == 0 {
			t.Fatalf("%s: degenerate run shipped no bytes (1d %.4f, 2d %.4f MiB)", a.Analytic, a.SentMiB, b.SentMiB)
		}
		t.Logf("%s: max rank MiB 1d=%.4f 2d=%.4f (saved %.1f%%), total 1d=%.4f 2d=%.4f",
			a.Analytic, a.MaxRankMiB, b.MaxRankMiB, 100*(1-b.MaxRankMiB/a.MaxRankMiB), a.SentMiB, b.SentMiB)
	}
}
