package analytics

import (
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
	// Scores[v] is the PageRank of owned local vertex v; global scores sum
	// to 1.
	Scores []float64
	// Iterations is the number of iterations executed.
	Iterations int
}

// PageRank runs distributed PageRank (the paper's prototypical
// PageRank-like analytic): pull-form power iteration over in-edges with
// ghost values refreshed through the retained-queue halo each iteration,
// dangling mass redistributed uniformly.
func PageRank(ctx *core.Ctx, g *core.Graph, opts PageRankOptions) (*PageRankResult, error) {
	if err := require1D(g, "PageRank"); err != nil {
		return nil, err
	}
	n := float64(g.NGlobal)
	d := opts.Damping

	halo, _, err := haloFor(ctx, g, DirsOut)
	if err != nil {
		return nil, err
	}

	pr := make([]float64, g.NLoc)
	next := make([]float64, g.NLoc)
	// val[u] = pr[u]/outdeg[u] for owned and ghost u: the quantity pulled
	// across in-edges. Shipping the pre-divided value keeps ghost storage
	// to one float and the exchange to one value per edge-cut vertex.
	val := make([]float64, g.NTotal())
	startIter := 0
	if rcp := opts.Checkpoint.Resume; rcp != nil {
		// Resume: owned scores come from the snapshot; ghost values are
		// re-derived by the pre-loop exchange below, exactly as the
		// uninterrupted run left them at this iteration boundary.
		if err := opts.Checkpoint.validateResumeCollective(ctx, "pagerank", g.NLoc); err != nil {
			return nil, err
		}
		copy(pr, rcp.F64)
		startIter = rcp.Iter
	} else {
		for v := uint32(0); v < g.NLoc; v++ {
			pr[v] = 1 / n
		}
	}
	for v := uint32(0); v < g.NLoc; v++ {
		if od := g.OutDegree(v); od > 0 {
			val[v] = pr[v] / float64(od)
		}
	}
	if err := Exchange(ctx, halo, val); err != nil {
		return nil, err
	}

	iters := startIter
	tr := ctx.Comm.Tracer()
	for it := startIter; it < opts.Iterations; it++ {
		mark := tr.Now()
		// Global dangling mass (vertices with no out-edges leak rank).
		localDangling := ctx.Pool.SumRangeF64(int(g.NLoc), func(i int) float64 {
			if g.OutDegree(uint32(i)) == 0 {
				return pr[i]
			}
			return 0
		})
		dangling, err := comm.Allreduce(ctx.Comm, localDangling, comm.OpSum)
		if err != nil {
			return nil, err
		}
		base := (1-d)/n + d*dangling/n

		ctx.Pool.For(int(g.NLoc), func(lo, hi, tid int) {
			for v := lo; v < hi; v++ {
				sum := 0.0
				for _, u := range g.InNeighbors(uint32(v)) {
					sum += val[u]
				}
				next[v] = base + d*sum
			}
		})

		// Convergence check on the global L1 delta.
		if opts.Tolerance > 0 {
			localDelta := ctx.Pool.SumRangeF64(int(g.NLoc), func(i int) float64 {
				dv := next[i] - pr[i]
				if dv < 0 {
					return -dv
				}
				return dv
			})
			delta, err := comm.Allreduce(ctx.Comm, localDelta, comm.OpSum)
			if err != nil {
				return nil, err
			}
			pr, next = next, pr
			iters = it + 1
			if delta < opts.Tolerance {
				tr.Span(SpanPageRankIter, mark, int64(it))
				break
			}
		} else {
			pr, next = next, pr
			iters = it + 1
		}

		ctx.Pool.For(int(g.NLoc), func(lo, hi, tid int) {
			for v := lo; v < hi; v++ {
				if od := g.OutDegree(uint32(v)); od > 0 {
					val[v] = pr[v] / float64(od)
				}
			}
		})
		if opts.RebuildQueues {
			if halo, err = BuildHalo(ctx, g, DirsOut); err != nil {
				return nil, err
			}
		}
		if err := Exchange(ctx, halo, val); err != nil {
			return nil, err
		}
		if opts.Checkpoint.due(it + 1) {
			cp := &Checkpoint{
				Analytic: "pagerank", Iter: it + 1,
				Rank: ctx.Rank(), Size: ctx.Size(), NLoc: g.NLoc,
				F64: append([]float64(nil), pr...),
			}
			if err := opts.Checkpoint.Sink(cp); err != nil {
				return nil, err
			}
		}
		tr.Span(SpanPageRankIter, mark, int64(it))
	}
	return &PageRankResult{Scores: pr, Iterations: iters}, nil
}
