package analytics

import (
	"repro/internal/comm"
	"repro/internal/core"
)

// PageRankWeighted runs distributed weighted PageRank: the pull-form power
// iteration of PageRank with each out-edge (u, v) carrying share
// w(u, v)/W(u) of u's rank, W(u) being u's total out-weight. Weights come
// from the same deterministic WeightFunc SSSP uses, so every rank computes
// the weight of any edge it can see from the two global ids alone — ghosts
// still ship exactly one float (pr[u]/W(u), the pre-divided value), and no
// weight ever crosses the wire. Vertices with W(u) == 0 (no out-edges;
// with positive weights the two coincide) are dangling and their mass is
// redistributed uniformly. Under UnitWeights this is bit-identical to
// PageRank.
func PageRankWeighted(ctx *core.Ctx, g *core.Graph, opts PageRankOptions, w WeightFunc) (*PageRankResult, error) {
	if err := require1D(g, "weighted PageRank"); err != nil {
		return nil, err
	}
	n := float64(g.NGlobal)
	d := opts.Damping

	halo, _, err := haloFor(ctx, g, DirsOut)
	if err != nil {
		return nil, err
	}

	// outW[u] = W(u) for owned u, and inW = every in-edge's weight in CSR
	// order, both computed once off the CSR: the iteration loop reads the
	// array instead of re-hashing each edge every iteration.
	outW := make([]float64, g.NLoc)
	inW := make([]float64, g.MIn())
	ctx.Pool.For(int(g.NLoc), func(lo, hi, _ int) {
		for v := lo; v < hi; v++ {
			vGid := g.GlobalID(uint32(v))
			var s uint64
			for _, u := range g.OutNeighbors(uint32(v)) {
				s += w(vGid, g.GlobalID(u))
			}
			outW[v] = float64(s)
			wts := inW[g.InIdx[v]:g.InIdx[v+1]]
			for i, u := range g.InNeighbors(uint32(v)) {
				wts[i] = float64(w(g.GlobalID(u), vGid))
			}
		}
	})

	pr := make([]float64, g.NLoc)
	next := make([]float64, g.NLoc)
	val := make([]float64, g.NTotal())
	for v := uint32(0); v < g.NLoc; v++ {
		pr[v] = 1 / n
		if outW[v] > 0 {
			val[v] = pr[v] / outW[v]
		}
	}
	if err := Exchange(ctx, halo, val); err != nil {
		return nil, err
	}

	iters := 0
	tr := ctx.Comm.Tracer()
	for it := 0; it < opts.Iterations; it++ {
		mark := tr.Now()
		localDangling := ctx.Pool.SumRangeF64(int(g.NLoc), func(i int) float64 {
			if outW[i] == 0 {
				return pr[i]
			}
			return 0
		})
		dangling, err := comm.Allreduce(ctx.Comm, localDangling, comm.OpSum)
		if err != nil {
			return nil, err
		}
		base := (1-d)/n + d*dangling/n

		ctx.Pool.For(int(g.NLoc), func(lo, hi, _ int) {
			for v := lo; v < hi; v++ {
				wts := inW[g.InIdx[v]:g.InIdx[v+1]]
				sum := 0.0
				for i, u := range g.InNeighbors(uint32(v)) {
					sum += val[u] * wts[i]
				}
				next[v] = base + d*sum
			}
		})

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

		ctx.Pool.For(int(g.NLoc), func(lo, hi, _ int) {
			for v := lo; v < hi; v++ {
				if outW[v] > 0 {
					val[v] = pr[v] / outW[v]
				}
			}
		})
		if err := Exchange(ctx, halo, val); err != nil {
			return nil, err
		}
		tr.Span(SpanPageRankIter, mark, int64(it))
	}
	return &PageRankResult{Scores: pr, Iterations: iters}, nil
}
