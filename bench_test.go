package repro

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (regenerating the experiment at a bench-friendly scale via the
// harness package), plus the ablation benchmarks for the design choices
// DESIGN.md §3 lists. Run everything with:
//
//	go test -bench=. -benchmem
//
// The full-size renderings (with paper-vs-measured notes) come from
// cmd/repro; these benches exist to track the cost of each experiment and
// each design choice over time.

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/analytics"
	"repro/internal/baseline"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/vmap"
)

// benchConfig is the bench-scale harness configuration.
func benchConfig() harness.Config {
	cfg := harness.Default()
	cfg.Scale = 0.125 // WC-sim: 8192 vertices, ~295k edges
	cfg.Ranks = []int{1, 2, 4}
	cfg.Threads = 1
	return cfg
}

func benchExperiment(b *testing.B, key string) {
	b.Helper()
	exp, err := harness.Lookup(key)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := exp.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := rep.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Inventory(b *testing.B)     { benchExperiment(b, "table1") }
func BenchmarkTable3Construction(b *testing.B)  { benchExperiment(b, "table3") }
func BenchmarkTable4Analytics(b *testing.B)     { benchExperiment(b, "table4") }
func BenchmarkTable5Communities(b *testing.B)   { benchExperiment(b, "table5") }
func BenchmarkFig1WeakScaling(b *testing.B)     { benchExperiment(b, "fig1") }
func BenchmarkFig2StrongScaling(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkFig3Breakdown(b *testing.B)       { benchExperiment(b, "fig3") }
func BenchmarkFig4Frameworks(b *testing.B)      { benchExperiment(b, "fig4") }
func BenchmarkFig5CommunitySizes(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFig6Coreness(b *testing.B)        { benchExperiment(b, "fig6") }
func BenchmarkPriorWorkComparison(b *testing.B) { benchExperiment(b, "priorwork") }

// --- Per-analytic micro-benchmarks on a shared mid-size graph. ---

const (
	benchN = 1 << 14
	benchM = benchN * 16
)

// benchOnGraph builds the R-MAT bench graph once per bench invocation and
// times body b.N times inside the SPMD region.
func benchOnGraph(b *testing.B, ranks int, body func(ctx *core.Ctx, g *core.Graph) error) {
	b.Helper()
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: benchN, NumEdges: benchM, Seed: 9}
	src := core.SpecSource{Spec: spec}
	err := comm.RunLocal(ranks, func(c *comm.Comm) error {
		ctx := core.NewCtx(c, 1)
		pt, err := core.MakePartitioner(ctx, src, partition.Random, spec.NumVertices, 3)
		if err != nil {
			return err
		}
		g, _, err := core.Build(ctx, src, pt)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			if err := body(ctx, g); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkPageRank10Iters(b *testing.B) {
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("ranks=%d", p), func(b *testing.B) {
			benchOnGraph(b, p, func(ctx *core.Ctx, g *core.Graph) error {
				_, err := analytics.PageRank(ctx, g, analytics.DefaultPageRank())
				return err
			})
		})
	}
}

func BenchmarkLabelProp10Iters(b *testing.B) {
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("ranks=%d", p), func(b *testing.B) {
			benchOnGraph(b, p, func(ctx *core.Ctx, g *core.Graph) error {
				_, err := analytics.LabelProp(ctx, g, analytics.LabelPropOptions{Iterations: 10})
				return err
			})
		})
	}
}

func BenchmarkBFS(b *testing.B) {
	benchOnGraph(b, 4, func(ctx *core.Ctx, g *core.Graph) error {
		_, err := analytics.BFS(ctx, g, 0, analytics.Forward)
		return err
	})
}

func BenchmarkWCCMultistep(b *testing.B) {
	benchOnGraph(b, 4, func(ctx *core.Ctx, g *core.Graph) error {
		_, err := analytics.WCC(ctx, g)
		return err
	})
}

func BenchmarkHarmonicSingleVertex(b *testing.B) {
	benchOnGraph(b, 4, func(ctx *core.Ctx, g *core.Graph) error {
		_, err := analytics.Harmonic(ctx, g, 0)
		return err
	})
}

func BenchmarkKCore27Levels(b *testing.B) {
	benchOnGraph(b, 4, func(ctx *core.Ctx, g *core.Graph) error {
		_, err := analytics.KCoreApprox(ctx, g, harness.KCoreLevels)
		return err
	})
}

func BenchmarkLargestSCC(b *testing.B) {
	benchOnGraph(b, 4, func(ctx *core.Ctx, g *core.Graph) error {
		_, err := analytics.LargestSCC(ctx, g)
		return err
	})
}

func BenchmarkGraphConstruction(b *testing.B) {
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: benchN, NumEdges: benchM, Seed: 9}
	src := core.SpecSource{Spec: spec}
	b.SetBytes(int64(spec.NumEdges) * 8)
	for i := 0; i < b.N; i++ {
		err := comm.RunLocal(4, func(c *comm.Comm) error {
			ctx := core.NewCtx(c, 1)
			pt := partition.NewVertexBlock(spec.NumVertices, 4)
			_, _, err := core.Build(ctx, src, pt)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §3) ---

// BenchmarkAblationRetainedQueues compares the paper's retained send queues
// against rebuilding them every iteration (§III-D1's optimization).
func BenchmarkAblationRetainedQueues(b *testing.B) {
	for _, rebuild := range []bool{false, true} {
		name := "retained"
		if rebuild {
			name = "rebuild"
		}
		b.Run(name, func(b *testing.B) {
			benchOnGraph(b, 4, func(ctx *core.Ctx, g *core.Graph) error {
				opts := analytics.DefaultPageRank()
				opts.RebuildQueues = rebuild
				_, err := analytics.PageRank(ctx, g, opts)
				return err
			})
		})
	}
}

// BenchmarkAblationThreadQueues compares per-thread staged queue flushes
// (Algorithm 3) against one atomic reservation per item.
func BenchmarkAblationThreadQueues(b *testing.B) {
	const nItems = 1 << 18
	const ndest = 8
	for _, buffered := range []bool{true, false} {
		name := "direct"
		if buffered {
			name = "buffered"
		}
		b.Run(name, func(b *testing.B) {
			pool := par.NewPool(4)
			counts := make([]uint64, ndest)
			for d := range counts {
				counts[d] = nItems / ndest
			}
			offsets, total := par.ExclusivePrefixSum(counts)
			out := make([]uint64, total)
			b.SetBytes(nItems * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sh := par.NewShared(offsets, func(dest int, base uint64, items []uint64) {
					copy(out[base:], items)
				})
				pool.Run(func(tid int) {
					lo, hi := par.ThreadRange(nItems, pool.Threads(), tid)
					if buffered {
						buf := sh.Buf(512)
						for k := lo; k < hi; k++ {
							buf.Push(k%ndest, uint64(k))
						}
						buf.Flush()
					} else {
						for k := lo; k < hi; k++ {
							sh.PushDirect(k%ndest, uint64(k))
						}
					}
				})
			}
		})
	}
}

// BenchmarkAblationVmap compares the linear-probing id map against Go's
// built-in map on the ghost-lookup access pattern (§III-C).
func BenchmarkAblationVmap(b *testing.B) {
	const n = 1 << 18
	keys := make([]uint32, n)
	x := gen.Spec{Kind: gen.ER, NumVertices: 1 << 30, NumEdges: n, Seed: 2}
	l, err := x.GenerateAll()
	if err != nil {
		b.Fatal(err)
	}
	for i := range keys {
		keys[i] = l.Src(i)
	}
	b.Run("vmap", func(b *testing.B) {
		m := vmap.New(n)
		for i, k := range keys {
			m.Put(k, uint32(i))
		}
		b.ResetTimer()
		var sink uint32
		for i := 0; i < b.N; i++ {
			sink += m.GetOr(keys[i%n], 0)
		}
		_ = sink
	})
	b.Run("builtin", func(b *testing.B) {
		m := make(map[uint32]uint32, n)
		for i, k := range keys {
			m[k] = uint32(i)
		}
		b.ResetTimer()
		var sink uint32
		for i := 0; i < b.N; i++ {
			sink += m[keys[i%n]]
		}
		_ = sink
	})
}

// BenchmarkAblationRelabel compares flat-array per-vertex state indexed by
// relabeled local ids (the paper's representation) against hash-map state
// keyed by global ids (the framework-typical representation) on a PageRank
// iteration's access pattern.
func BenchmarkAblationRelabel(b *testing.B) {
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: benchN, NumEdges: benchM, Seed: 9}
	edges, err := spec.GenerateAll()
	if err != nil {
		b.Fatal(err)
	}
	// Flat CSR with local ids.
	b.Run("relabeled-array", func(b *testing.B) {
		benchOnGraph(b, 1, func(ctx *core.Ctx, g *core.Graph) error {
			_, err := analytics.PageRank(ctx, g, analytics.PageRankOptions{Iterations: 1, Damping: 0.85})
			return err
		})
	})
	// Hash-map adjacency and state keyed by global id.
	b.Run("hashmap-state", func(b *testing.B) {
		adj := make(map[uint32][]uint32)
		for i := 0; i < edges.Len(); i++ {
			adj[edges.Src(i)] = append(adj[edges.Src(i)], edges.Dst(i))
		}
		state := make(map[uint32]float64, spec.NumVertices)
		for v := uint32(0); v < spec.NumVertices; v++ {
			state[v] = 1 / float64(spec.NumVertices)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			next := make(map[uint32]float64, len(state))
			for u, nbrs := range adj {
				if len(nbrs) == 0 {
					continue
				}
				share := 0.85 * state[u] / float64(len(nbrs))
				for _, v := range nbrs {
					next[v] += share
				}
			}
			for v := range state {
				state[v] = next[v] + 0.15/float64(spec.NumVertices)
			}
		}
	})
}

// BenchmarkAblationMultistep compares Multistep WCC (BFS phase + coloring
// remainder) against single-stage coloring over the whole graph.
func BenchmarkAblationMultistep(b *testing.B) {
	b.Run("multistep", func(b *testing.B) {
		benchOnGraph(b, 4, func(ctx *core.Ctx, g *core.Graph) error {
			_, err := analytics.WCC(ctx, g)
			return err
		})
	})
	b.Run("single-stage", func(b *testing.B) {
		benchOnGraph(b, 4, func(ctx *core.Ctx, g *core.Graph) error {
			_, err := analytics.WCCSingleStage(ctx, g)
			return err
		})
	})
}

// BenchmarkFrameworkBaselinePageRank measures the vertex-centric baseline
// on the same graph as BenchmarkPageRank10Iters; their ratio is the Fig. 4
// headline at bench scale.
func BenchmarkFrameworkBaselinePageRank(b *testing.B) {
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: benchN, NumEdges: benchM, Seed: 9}
	src := core.SpecSource{Spec: spec}
	err := comm.RunLocal(4, func(c *comm.Comm) error {
		ctx := core.NewCtx(c, 1)
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			if _, err := baseline.PageRank(ctx, src, spec.NumVertices, 10, 0.85); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAblationCompression compares PageRank over raw CSR arrays
// against the varint-compressed adjacency (the paper's future-work
// compression direction): the decode cost bought by the smaller footprint.
func BenchmarkAblationCompression(b *testing.B) {
	b.Run("raw-csr", func(b *testing.B) {
		benchOnGraph(b, 1, func(ctx *core.Ctx, g *core.Graph) error {
			_, err := analytics.PageRank(ctx, g, analytics.DefaultPageRank())
			return err
		})
	})
	b.Run("compressed", func(b *testing.B) {
		spec := gen.Spec{Kind: gen.RMAT, NumVertices: benchN, NumEdges: benchM, Seed: 9}
		src := core.SpecSource{Spec: spec}
		err := comm.RunLocal(1, func(c *comm.Comm) error {
			ctx := core.NewCtx(c, 1)
			pt := partition.NewVertexBlock(spec.NumVertices, 1)
			g, _, err := core.Build(ctx, src, pt)
			if err != nil {
				return err
			}
			cg := core.Compress(g)
			b.ReportMetric(float64(cg.CompressedBytes())/float64(cg.RawBytes()), "compressed/raw")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := analytics.PageRankCompressed(ctx, cg, analytics.DefaultPageRank()); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkSSSPHashedWeights(b *testing.B) {
	w := analytics.HashWeights(7, 16)
	benchOnGraph(b, 4, func(ctx *core.Ctx, g *core.Graph) error {
		_, err := analytics.SSSP(ctx, g, 0, w)
		return err
	})
}
