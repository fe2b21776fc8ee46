package analytics

import (
	"repro/internal/comm"
	"repro/internal/core"
)

// PageRankCompressed is PageRank running against the varint-compressed
// adjacency view (the paper's future-work compression direction): identical
// semantics and communication to PageRank, with the pull loop decoding
// in-neighbor lists into a per-thread scratch buffer instead of walking raw
// CSR arrays. Exists to quantify the decode cost the compressed footprint
// buys (see BenchmarkAblationCompression).
func PageRankCompressed(ctx *core.Ctx, cg *core.Compressed, opts PageRankOptions) (*PageRankResult, error) {
	g := cg.G
	n := float64(g.NGlobal)
	d := opts.Damping

	halo, _, err := haloFor(ctx, g, DirsOut)
	if err != nil {
		return nil, err
	}
	pr := make([]float64, g.NLoc)
	next := make([]float64, g.NLoc)
	val := make([]float64, g.NTotal())
	for v := uint32(0); v < g.NLoc; v++ {
		pr[v] = 1 / n
		if od := g.OutDegree(v); od > 0 {
			val[v] = pr[v] / float64(od)
		}
	}
	if err := Exchange(ctx, halo, val); err != nil {
		return nil, err
	}
	for it := 0; it < opts.Iterations; it++ {
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
		ctx.Pool.Run(func(tid int) {
			scratch := make([]uint32, cg.MaxDegree())
			lo, hi := threadRangeLoc(g, tid, ctx.Pool.Threads())
			for v := lo; v < hi; v++ {
				sum := 0.0
				for _, u := range cg.InNeighbors(v, scratch) {
					sum += val[u]
				}
				next[v] = base + d*sum
			}
		})
		pr, next = next, pr
		ctx.Pool.For(int(g.NLoc), func(lo, hi, tid int) {
			for v := lo; v < hi; v++ {
				if od := g.OutDegree(uint32(v)); od > 0 {
					val[v] = pr[v] / float64(od)
				}
			}
		})
		if err := Exchange(ctx, halo, val); err != nil {
			return nil, err
		}
	}
	return &PageRankResult{Scores: pr, Iterations: opts.Iterations}, nil
}
