package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/gio"
	"repro/internal/partition"
)

// tinyConfig shrinks every experiment to seconds for CI.
func tinyConfig() Config {
	return Config{
		Scale:   0.02, // WC-sim ~1310 vertices (min 1024 applies)
		Ranks:   []int{1, 2},
		Threads: 1,
		Seed:    7,
	}
}

func TestAllExperimentsRunAndRender(t *testing.T) {
	cfg := tinyConfig()
	for _, e := range Experiments() {
		e := e
		t.Run(e.Key, func(t *testing.T) {
			rep, err := e.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ID == "" || rep.Title == "" {
				t.Fatalf("report missing identity: %+v", rep)
			}
			if len(rep.Rows) == 0 {
				t.Fatal("report has no rows")
			}
			for _, row := range rep.Rows {
				if len(row) != len(rep.Header) {
					t.Fatalf("row width %d != header width %d: %v", len(row), len(rep.Header), row)
				}
			}
			var buf bytes.Buffer
			if err := rep.Render(&buf); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if !strings.Contains(out, rep.ID) {
				t.Fatalf("render missing ID:\n%s", out)
			}
			for _, h := range rep.Header {
				if !strings.Contains(out, strings.TrimSpace(h)) {
					t.Fatalf("render missing header %q:\n%s", h, out)
				}
			}
		})
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("table4"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("table2"); err == nil {
		t.Fatal("nonexistent table accepted")
	}
}

func TestRunAllRendersEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	var buf bytes.Buffer
	if err := RunAll(tinyConfig(), &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table I", "Table III", "Table IV", "Table V",
		"Figure 1", "Figure 2", "Figure 3", "Figure 4", "Figure 5", "Figure 6", "Prior work"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("RunAll output missing %q", want)
		}
	}
}

func TestFig3RawBreakdownSane(t *testing.T) {
	cfg := tinyConfig()
	stats, mets, err := Fig3Raw(cfg, 2, partition.VertexBlock)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 || len(mets) != 2 {
		t.Fatalf("got %d stats, %d metrics", len(stats), len(mets))
	}
	for r, s := range stats {
		if s.Total() <= 0 {
			t.Fatalf("rank %d: empty breakdown %+v", r, s)
		}
		if s.Exchanges == 0 {
			t.Fatalf("rank %d: no exchanges recorded", r)
		}
		if s.BytesSent == 0 {
			t.Fatalf("rank %d: no traffic recorded on 2 ranks", r)
		}
	}
}

// TestFig3VolumeMatchesStats pins the figure's wire-volume fix: the
// per-collective obs counters and the communicator's Stats tally the same
// run at different layers, and they must agree exactly — per rank, for
// both directions and the call count. This is the regression test for the
// Sent MiB column now being derived from the counters.
func TestFig3VolumeMatchesStats(t *testing.T) {
	cfg := tinyConfig()
	for _, p := range []int{2, 4} {
		stats, mets, err := Fig3Raw(cfg, p, partition.Random)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < p; r++ {
			s, tot := stats[r], mets[r].Total()
			if tot.WireBytesOut != s.BytesSent {
				t.Fatalf("p=%d rank %d: counters sent %d bytes, stats %d", p, r, tot.WireBytesOut, s.BytesSent)
			}
			if tot.WireBytesIn != s.BytesRecv {
				t.Fatalf("p=%d rank %d: counters recvd %d bytes, stats %d", p, r, tot.WireBytesIn, s.BytesRecv)
			}
			if tot.Calls != s.Exchanges {
				t.Fatalf("p=%d rank %d: counters saw %d collectives, stats %d", p, r, tot.Calls, s.Exchanges)
			}
			if tot.SelfBytes == 0 {
				t.Fatalf("p=%d rank %d: no self-bypass bytes recorded; PageRank always keeps a local segment", p, r)
			}
			if tot.MaxMsgBytes == 0 {
				t.Fatalf("p=%d rank %d: zero max message size with off-rank traffic", p, r)
			}
		}
	}
}

func TestConfigScaled(t *testing.T) {
	cfg := Config{Scale: 0.5}
	if got := cfg.scaled(1000, 1); got != 500 {
		t.Fatalf("scaled = %d", got)
	}
	if got := cfg.scaled(10, 100); got != 100 {
		t.Fatalf("scaled min = %d", got)
	}
}

func TestEngiFormatting(t *testing.T) {
	cases := map[uint64]string{
		5:             "5",
		1500:          "1.5K",
		2_500_000:     "2.50M",
		3_560_000_000: "3.56B",
	}
	for v, want := range cases {
		if got := engi(v); got != want {
			t.Fatalf("engi(%d) = %q, want %q", v, got, want)
		}
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{4, 16}); g < 7.9 || g > 8.1 {
		t.Fatalf("geomean = %v", g)
	}
	if geomean(nil) != 0 {
		t.Fatal("empty geomean not 0")
	}
}

// TestEndToEndReadsFile runs the end-to-end pipeline on a given edge file:
// every stage row appears, the title carries the scanned n and the file's
// m, and the caller's file is still there afterwards.
func TestEndToEndReadsFile(t *testing.T) {
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: 512, NumEdges: 900, Seed: 5}
	edges, err := spec.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	maxV, _ := edges.MaxVertex()
	path := filepath.Join(t.TempDir(), "crawl.bin")
	if err := gio.WriteFile(path, edges); err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.File = path
	rep, err := EndToEnd(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("on crawl.bin (n=%d, m=900), 2 ranks", maxV+1)
	if !strings.Contains(rep.Title, want) {
		t.Fatalf("title %q, want it to contain %q", rep.Title, want)
	}
	var stages []string
	for _, row := range rep.Rows {
		stages = append(stages, row[0])
	}
	wantStages := []string{"Read (file I/O)", "Edge exchanges", "CSR conversion",
		"PageRank", "Label Propagation", "WCC", "Harmonic Centrality", "k-core", "SCC", "TOTAL"}
	if !slices.Equal(stages, wantStages) {
		t.Fatalf("stages %q, want %q", stages, wantStages)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("input file gone after the run: %v", err)
	}
}
