package analytics

import (
	"math"
	"slices"

	"repro/internal/comm"
	"repro/internal/core"
)

// PageRankOptions configures PageRank. The zero value is not useful;
// DefaultPageRank gives the paper's settings.
type PageRankOptions struct {
	// Iterations is the fixed power-iteration count (the paper reports
	// 10-iteration runs and per-iteration times).
	Iterations int
	// Damping is the damping factor d.
	Damping float64
	// Tolerance, if positive, stops early once the global L1 change drops
	// below it (the paper's "user-defined tolerance" stopping criterion).
	Tolerance float64
	// RebuildQueues disables the retained-queue optimization and rebuilds
	// the halo every iteration — the unoptimized configuration the paper's
	// §III-D1 improves on; kept for the ablation benchmark.
	RebuildQueues bool
	// Checkpoint attaches iteration-granular snapshot/resume; the zero
	// value runs without fault tolerance.
	Checkpoint CheckpointConfig
}

// DefaultPageRank returns the paper's configuration: 10 iterations,
// damping 0.85, no tolerance stop.
func DefaultPageRank() PageRankOptions {
	return PageRankOptions{Iterations: 10, Damping: 0.85}
}

// PageRankResult carries the per-owned-vertex scores and run metadata.
type PageRankResult struct {
	// Scores[v] is owned local vertex v's PageRank; global scores sum to 1.
	Scores []float64
	// Iterations is the number of iterations executed.
	Iterations int
}

// PageRank runs distributed PageRank (the paper's prototypical
// PageRank-like analytic): pull-form power iteration over in-edges with
// ghost values refreshed through the retained-queue halo each iteration,
// dangling mass redistributed uniformly.
func PageRank(ctx *core.Ctx, g *core.Graph, opts PageRankOptions) (*PageRankResult, error) {
	return pageRank(ctx, g, opts, nil, nil)
}

// PageRankWeighted runs weighted PageRank: out-edge (u, v) carries share
// w(u, v)/W(u) of u's rank, W(u) being u's total out-weight (0: dangling).
// Weights come from SSSP's deterministic WeightFunc, so every rank weighs an
// edge from its two global ids and no weight crosses the wire. A nil w is
// PageRank, bit for bit.
func PageRankWeighted(ctx *core.Ctx, g *core.Graph, opts PageRankOptions, w WeightFunc) (*PageRankResult, error) {
	if w == nil {
		return pageRank(ctx, g, opts, nil, nil)
	}
	return pageRank(ctx, g, opts, &edgeWeights{fn: w}, nil)
}

// PageRankCompressed is PageRank over the varint-compressed adjacency view
// (the paper's future-work compression direction), decoding in-neighbor
// lists into per-thread scratch: it prices the decode cost the smaller
// footprint buys (BenchmarkAblationCompression).
func PageRankCompressed(ctx *core.Ctx, cg *core.Compressed, opts PageRankOptions) (*PageRankResult, error) {
	return pageRank(ctx, cg.G, opts, nil, cg)
}

// pageRank is the one power iteration behind the three entry points: a
// non-nil w weighs the pull, a non-nil cg decodes in-neighbors from cg.
func pageRank(ctx *core.Ctx, g *core.Graph, opts PageRankOptions, w *edgeWeights, cg *core.Compressed) (*PageRankResult, error) {
	if err := require1D(g, "PageRank"); err != nil {
		return nil, err
	}
	n, d, nloc := float64(g.NGlobal), opts.Damping, int(g.NLoc)
	analytic := "pagerank"
	if w != nil {
		analytic = "wpagerank"
	}
	halo, _, err := haloFor(ctx, g, DirsOut)
	if err != nil {
		return nil, err
	}
	// One pass seeds pr and fills div[u] (out-degree, or W(u) if weighted)
	// and inW (in-edge weights in CSR order): no iteration re-hashes an edge.
	pr, next := make([]float64, nloc), make([]float64, nloc)
	div := make([]float64, nloc)
	var inW []float64
	if w != nil {
		inW = make([]float64, g.MIn())
	}
	ctx.Pool.For(nloc, func(lo, hi, _ int) {
		var outW []uint64 // the out-weights only feed W(u)
		for v := lo; v < hi; v++ {
			pr[v] = 1 / n
			out := g.OutNeighbors(uint32(v))
			if w == nil {
				div[v] = float64(len(out))
				continue
			}
			outW = slices.Grow(outW[:0], len(out))
			div[v] = float64(weighRow(*w, g, uint32(v), out, true, outW))
			weighRow(*w, g, uint32(v), g.InNeighbors(uint32(v)), false, inW[g.InIdx[v]:g.InIdx[v+1]])
		}
	})
	var scratch []uint32 // one MaxDegree decode buffer per pool thread
	if cg != nil {
		scratch = make([]uint32, ctx.Pool.Threads()*cg.MaxDegree())
	}
	// val[u] = pr[u]/div[u] for owned and ghost u, the value pulled across
	// in-edges: one float per ghost and per edge-cut vertex on the wire.
	// The same pass sums the dangling mass, pr over div == 0, the way
	// Pool.SumRangeF64 does: one partial per pool block, added in thread
	// order. A skipped term would add +0, so the sum is bit-identical to a
	// separate pass at every thread count.
	val := make([]float64, g.NTotal())
	part := make([]float64, ctx.Pool.Threads())
	var localDangling float64
	refresh := func() error {
		clear(part)
		ctx.Pool.For(nloc, func(lo, hi, tid int) {
			var s float64
			for v := lo; v < hi; v++ {
				if div[v] > 0 {
					val[v] = pr[v] / div[v]
				} else {
					s += pr[v]
				}
			}
			part[tid] += s
		})
		localDangling = 0
		for _, s := range part {
			localDangling += s
		}
		return Exchange(ctx, halo, val)
	}
	iters := 0
	if rcp := opts.Checkpoint.Resume; rcp != nil {
		// Owned scores come from the snapshot; the exchange below re-derives
		// the ghost values the uninterrupted run held at this boundary.
		if err := opts.Checkpoint.validateResume(ctx, analytic, g.NLoc, opts.Iterations); err != nil {
			return nil, err
		}
		copy(pr, rcp.F64)
		iters = rcp.Iter
	}
	if err := refresh(); err != nil {
		return nil, err
	}
	tr := ctx.Comm.Tracer()
	for it := iters; it < opts.Iterations; it++ {
		mark := tr.Now()
		// Global dangling mass (vertices with no out-edges leak rank).
		dangling, err := comm.Allreduce(ctx.Comm, localDangling, comm.OpSum)
		if err != nil {
			return nil, err
		}
		base := (1-d)/n + d*dangling/n

		// The gather: one direct loop per variant, chosen once per chunk.
		ctx.Pool.For(nloc, func(lo, hi, tid int) {
			switch {
			case cg != nil:
				buf := scratch[tid*cg.MaxDegree() : (tid+1)*cg.MaxDegree()]
				for v := lo; v < hi; v++ {
					sum := 0.0
					for _, u := range cg.InNeighbors(uint32(v), buf) {
						sum += val[u]
					}
					next[v] = base + d*sum
				}
			case w != nil:
				for v := lo; v < hi; v++ {
					sum, wts := 0.0, inW[g.InIdx[v]:g.InIdx[v+1]]
					for i, u := range g.InNeighbors(uint32(v)) {
						sum += val[u] * wts[i]
					}
					next[v] = base + d*sum
				}
			default:
				for v := lo; v < hi; v++ {
					sum := 0.0
					for _, u := range g.InNeighbors(uint32(v)) {
						sum += val[u]
					}
					next[v] = base + d*sum
				}
			}
		})
		// Convergence check on the global L1 delta (never met at Tolerance 0).
		delta := math.Inf(1)
		if opts.Tolerance > 0 {
			localDelta := ctx.Pool.SumRangeF64(nloc, func(i int) float64 { return math.Abs(next[i] - pr[i]) })
			if delta, err = comm.Allreduce(ctx.Comm, localDelta, comm.OpSum); err != nil {
				return nil, err
			}
		}
		pr, next = next, pr
		iters = it + 1
		if delta < opts.Tolerance {
			tr.Span(SpanPageRankIter, mark, int64(it))
			break
		}
		// The next iteration pulls these scores; after the last, nothing does.
		if iters < opts.Iterations {
			if opts.RebuildQueues { // a plan-less context makes haloFor build afresh
				solo := *ctx
				solo.Plans = nil
				if halo, _, err = haloFor(&solo, g, DirsOut); err != nil {
					return nil, err
				}
			}
			if err := refresh(); err != nil {
				return nil, err
			}
		}
		if opts.Checkpoint.due(it + 1) {
			if err := opts.Checkpoint.Sink(&Checkpoint{Analytic: analytic, Iter: it + 1, Rank: ctx.Rank(),
				Size: ctx.Size(), NLoc: g.NLoc, F64: append([]float64(nil), pr...)}); err != nil {
				return nil, err
			}
		}
		tr.Span(SpanPageRankIter, mark, int64(it))
	}
	return &PageRankResult{Scores: pr, Iterations: iters}, nil
}
