package harness

import (
	"testing"

	"repro/internal/core"
)

// TestHybridAdaptiveReducesTraffic is the count pin CI runs: on
// the harness RMAT graph the adaptive policy must not ship more traversal
// bytes than the always-sparse push baseline. The heavy-skew, degree-36
// graph saturates its frontier within a couple of steps, which is exactly
// the regime the dense bitmap exchange and the bottom-up switch exist for —
// if adaptive ever loses here, the heuristic has regressed.
func TestHybridAdaptiveReducesTraffic(t *testing.T) {
	cfg := tinyConfig()
	spec := cfg.wcSim()
	sent := make(map[string]float64)
	steps := make(map[string]uint64)
	for _, m := range hybridModes {
		if m.Mode == core.TraverseDense {
			continue // the forced extreme is covered by the experiment itself
		}
		entries, err := HybridRaw(cfg, 2, "wc-rmat", spec, m.Name, m.Mode)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != len(hybridAnalytics) {
			t.Fatalf("%s cell has %d entries, want one per analytic (%d)", m.Name, len(entries), len(hybridAnalytics))
		}
		for _, e := range entries {
			sent[m.Name] += e.SentMiB
			steps[m.Name] += e.Stats.Steps()
		}
	}
	if steps["push"] == 0 || steps["adaptive"] == 0 {
		t.Fatalf("degenerate run: %d push-mode steps, %d adaptive steps", steps["push"], steps["adaptive"])
	}
	if sent["adaptive"] > sent["push"] {
		t.Fatalf("adaptive shipped %.3f MiB, push baseline %.3f MiB: the hybrid engine must not exceed the always-sparse baseline on the RMAT graph",
			sent["adaptive"], sent["push"])
	}
	t.Logf("sent MiB: push=%.3f adaptive=%.3f (saved %.1f%%)",
		sent["push"], sent["adaptive"], 100*(1-sent["adaptive"]/sent["push"]))
}
