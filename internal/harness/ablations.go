package harness

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/partition"
)

// Ablations renders the DESIGN.md §3 design-choice comparisons as a table
// (the benchmark variants of the same comparisons live in bench_test.go):
// retained vs rebuilt send queues, Multistep vs single-stage WCC, and raw
// vs compressed adjacency, all on the Web Crawl stand-in at the largest
// rank count.
func Ablations(cfg Config) (*Report, error) {
	spec := cfg.wcSim()
	p := cfg.maxRanks()
	r := &Report{
		ID:     "Extension: ablations",
		Title:  fmt.Sprintf("Design-choice ablations on WC-sim, %d ranks", p),
		Header: []string{"Choice", "Variant", "Time (s)"},
	}
	type variant struct {
		choice, name string
		run          func(ctx *core.Ctx, g *core.Graph) error
	}
	variants := []variant{
		{"send queues (PageRank)", "retained (paper)", func(ctx *core.Ctx, g *core.Graph) error {
			_, err := analytics.PageRank(ctx, g, analytics.DefaultPageRank())
			return err
		}},
		{"send queues (PageRank)", "rebuilt each iteration", func(ctx *core.Ctx, g *core.Graph) error {
			opts := analytics.DefaultPageRank()
			opts.RebuildQueues = true
			_, err := analytics.PageRank(ctx, g, opts)
			return err
		}},
		{"WCC algorithm", "Multistep (paper)", func(ctx *core.Ctx, g *core.Graph) error {
			_, err := analytics.WCC(ctx, g)
			return err
		}},
		{"WCC algorithm", "single-stage coloring", func(ctx *core.Ctx, g *core.Graph) error {
			_, err := analytics.WCCSingleStage(ctx, g)
			return err
		}},
		{"adjacency storage (PageRank)", "raw CSR (paper)", func(ctx *core.Ctx, g *core.Graph) error {
			_, err := analytics.PageRank(ctx, g, analytics.DefaultPageRank())
			return err
		}},
		{"adjacency storage (PageRank)", "varint-compressed", func(ctx *core.Ctx, g *core.Graph) error {
			cg := core.Compress(g)
			_, err := analytics.PageRankCompressed(ctx, cg, analytics.DefaultPageRank())
			return err
		}},
	}
	var mu sync.Mutex
	times := make([]time.Duration, len(variants))
	err := cfg.buildForAnalytics(p, core.SpecSource{Spec: spec}, spec.NumVertices, cfg.pick(partition.Random),
		func(ctx *core.Ctx, g *core.Graph) error {
			for i, v := range variants {
				d, err := timeAnalytic(ctx, func() error { return v.run(ctx, g) })
				if err != nil {
					return fmt.Errorf("%s/%s: %w", v.choice, v.name, err)
				}
				if ctx.Rank() == 0 {
					mu.Lock()
					times[i] = d
					mu.Unlock()
				}
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	for i, v := range variants {
		r.Rows = append(r.Rows, []string{v.choice, v.name, secs(times[i])})
	}
	r.Notes = append(r.Notes,
		"compressed adjacency trades decode time for ~0.37x edge-storage footprint (see BenchmarkAblationCompression for the memory figure)",
		"Multistep's advantage over single-stage grows with graph scale; at laptop sizes the BFS phase's barriers can outweigh the coloring work it saves")
	return r, nil
}
