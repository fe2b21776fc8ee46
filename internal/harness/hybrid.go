package harness

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/partition"
)

// Hybrid benchmarks the adaptive traversal engine: the BFS-like analytics
// under the always-push/always-sparse baseline, the adaptive policy, and
// the forced dense/pull policy, on the RMAT (WC-sim) and Erdős–Rényi
// companion graphs. Wall time, off-rank wire volume, and the engine's own
// step/representation counters go into the table.

// HybridEntry is one (graph, analytic, mode) measurement of the hybrid
// benchmark: the raw material of the rendered table and of the count pin.
type HybridEntry struct {
	Graph    string
	Analytic string
	Mode     string
	Ranks    int
	WallSecs float64
	// SentMiB is the off-rank wire volume of the whole analytic (all
	// collectives, all ranks summed), from the obs per-collective counters.
	SentMiB float64
	// Stats are the engine's per-step counters: steps by direction,
	// direction switches, exchanges and payload bytes by representation
	// (byte fields summed over ranks; step fields identical on every rank).
	Stats obs.TraversalStats
}

// hybridModes are the policies under comparison; "push" is the
// always-top-down, always-sparse baseline every prior PR ran.
var hybridModes = []struct {
	Name string
	Mode core.TraversalMode
}{
	{"push", core.TraversePush},
	{"adaptive", core.TraverseAdaptive},
	{"dense", core.TraverseDense},
}

// hybridAnalytics names the BFS-like kernels the benchmark drives.
var hybridAnalytics = []string{"bfs", "sssp", "wcc"}

// HybridRaw runs one (graph, mode) cell on p ranks and returns the
// per-analytic measurements. The traversal byte counters are summed over
// ranks; the step counters are taken from rank 0 (identical everywhere —
// decisions derive from globally reduced values).
func HybridRaw(cfg Config, p int, graphName string, spec gen.Spec, modeName string, mode core.TraversalMode) ([]HybridEntry, error) {
	type rankMeas struct {
		wall  [3]time.Duration
		sent  [3]uint64
		stats [3]obs.TraversalStats
	}
	meas := make([]rankMeas, p)
	var mu sync.Mutex
	err := cfg.buildForAnalytics(p, core.SpecSource{Spec: spec}, spec.NumVertices, cfg.pick(partition.VertexBlock),
		func(ctx *core.Ctx, g *core.Graph) error {
			ctx.Traverse = mode
			var rm rankMeas
			for i, a := range hybridAnalytics {
				if err := ctx.Comm.Barrier(); err != nil {
					return err
				}
				m := obs.NewMetrics()
				ctx.Comm.SetMetrics(m)
				start := time.Now()
				var st obs.TraversalStats
				switch a {
				case "bfs":
					res, err := analytics.BFS(ctx, g, 0, analytics.Forward)
					if err != nil {
						return err
					}
					st = res.Traversal
				case "sssp":
					res, err := analytics.SSSP(ctx, g, 0, analytics.HashWeights(cfg.Seed, 32))
					if err != nil {
						return err
					}
					st = res.Traversal
				case "wcc":
					res, err := analytics.WCC(ctx, g)
					if err != nil {
						return err
					}
					st = res.Traversal
				}
				if err := ctx.Comm.Barrier(); err != nil {
					return err
				}
				rm.wall[i] = time.Since(start)
				rm.sent[i] = m.Total().WireBytesOut
				rm.stats[i] = st
				ctx.Comm.SetMetrics(nil)
			}
			mu.Lock()
			meas[ctx.Rank()] = rm
			mu.Unlock()
			return nil
		})
	if err != nil {
		return nil, err
	}
	entries := make([]HybridEntry, 0, len(hybridAnalytics))
	for i, a := range hybridAnalytics {
		e := HybridEntry{Graph: graphName, Analytic: a, Mode: modeName, Ranks: p}
		var wall time.Duration
		var sent uint64
		st := meas[0].stats[i]
		st.SparseBytes, st.DenseBytes, st.BytesSaved = 0, 0, 0
		for r := 0; r < p; r++ {
			if meas[r].wall[i] > wall {
				wall = meas[r].wall[i]
			}
			sent += meas[r].sent[i]
			st.SparseBytes += meas[r].stats[i].SparseBytes
			st.DenseBytes += meas[r].stats[i].DenseBytes
			st.BytesSaved += meas[r].stats[i].BytesSaved
		}
		e.WallSecs = wall.Seconds()
		e.SentMiB = float64(sent) / (1 << 20)
		e.Stats = st
		entries = append(entries, e)
	}
	return entries, nil
}

// Hybrid is the registry entry point: the rendered comparison table.
func Hybrid(cfg Config) (*Report, error) {
	p := cfg.maxRanks()
	if p < 2 {
		p = 2 // representation choices only exist with remote ghosts
	}
	graphs := []struct {
		name string
		spec gen.Spec
	}{
		{"wc-rmat", cfg.wcSim()},
		{"er", cfg.erSim()},
	}
	r := &Report{
		ID:     "Hybrid",
		Title:  fmt.Sprintf("direction-optimizing traversal vs always-push baseline (%d ranks)", p),
		Header: []string{"Graph", "Analytic", "Mode", "Time (s)", "Sent MiB", "Steps push/pull", "Dir sw", "Exch sparse/dense", "Saved MiB"},
	}
	for _, gr := range graphs {
		for _, m := range hybridModes {
			entries, err := HybridRaw(cfg, p, gr.name, gr.spec, m.Name, m.Mode)
			if err != nil {
				return nil, err
			}
			for _, e := range entries {
				r.Rows = append(r.Rows, []string{
					e.Graph, e.Analytic, e.Mode,
					fmt.Sprintf("%.3f", e.WallSecs),
					fmt.Sprintf("%.2f", e.SentMiB),
					fmt.Sprintf("%d/%d", e.Stats.PushSteps, e.Stats.PullSteps),
					fmt.Sprintf("%d", e.Stats.DirSwitches),
					fmt.Sprintf("%d/%d", e.Stats.SparseExchanges, e.Stats.DenseExchanges),
					fmt.Sprintf("%.2f", float64(e.Stats.BytesSaved)/(1<<20)),
				})
			}
		}
	}
	r.Notes = append(r.Notes,
		"adaptive must not exceed the push baseline's Sent MiB summed over the analytics on the RMAT graph (CI-pinned); the dense row shows the forced bottom-up/bitmap extreme",
		"results are bit-identical across modes (pinned by the analytics cross-mode equivalence suite); only wire format and work order differ",
		"sssp ships one packed claim stream in every mode, so its rows must agree; wcc's coloring phase stays push-direction and its numbers cover its BFS phase")
	return r, nil
}
