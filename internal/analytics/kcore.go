package analytics

import (
	"sync/atomic"

	"repro/internal/comm"
	"repro/internal/core"
)

// KCoreResult carries the approximate coreness bounds.
type KCoreResult struct {
	// CorenessUB[v] is the coreness upper bound of owned local vertex v:
	// 2^i for a vertex first removed at threshold level i, 2^Levels for
	// survivors of every level.
	CorenessUB []uint32
	// Levels is the number of threshold levels run.
	Levels int
}

// KCoreApprox runs the paper's approximate k-core analytic ("27 iterations
// of BFS"-style): for thresholds 2^i, i = 1..levels, iteratively peel
// vertices whose remaining undirected degree falls below the threshold
// (BFS-like rounds with cross-rank degree decrements), then keep only the
// largest connected component of the survivors (a PageRank-like min-label
// coloring plus a global census). Everything removed at level i is bounded
// by coreness 2^i. The paper runs levels=27 on the full crawl.
func KCoreApprox(ctx *core.Ctx, g *core.Graph, levels int) (*KCoreResult, error) {
	if err := require1D(g, "k-core"); err != nil {
		return nil, err
	}
	halo, _, err := haloFor(ctx, g, DirsBoth)
	if err != nil {
		return nil, err
	}
	alive := make([]bool, g.NLoc)
	deg := make([]int64, g.NLoc)
	ub := make([]uint32, g.NLoc)
	for v := uint32(0); v < g.NLoc; v++ {
		alive[v] = true
		deg[v] = int64(g.OutDegree(v) + g.InDegree(v))
	}
	colors := make([]uint32, g.NTotal())
	const deadColor = ^uint32(0)

	var fsc frontierScratch
	tr := ctx.Comm.Tracer()
	for level := 1; level <= levels; level++ {
		mark := tr.Now()
		k := int64(1) << level

		// Peel to a fixed point: each round kills every owned vertex below
		// the threshold and ships one degree decrement per incident edge
		// whose other endpoint is remote.
		for {
			var dead []uint32
			for v := uint32(0); v < g.NLoc; v++ {
				if alive[v] && deg[v] < k {
					alive[v] = false
					dead = append(dead, v)
				}
			}
			globalDead, err := comm.Allreduce(ctx.Comm, uint64(len(dead)), comm.OpSum)
			if err != nil {
				return nil, err
			}
			if globalDead == 0 {
				break
			}
			var ghostDecs []uint32
			drop := func(u uint32) {
				if u < g.NLoc {
					deg[u]--
				} else {
					ghostDecs = append(ghostDecs, u)
				}
			}
			for _, v := range dead {
				for _, u := range g.OutNeighbors(v) {
					drop(u)
				}
				for _, u := range g.InNeighbors(v) {
					drop(u)
				}
			}
			arrived, err := exchangeFrontier(ctx, g, ghostDecs, &fsc)
			if err != nil {
				return nil, err
			}
			for _, lid := range arrived {
				deg[lid]--
			}
		}

		// Largest-component cut: min-label coloring over survivors.
		anyAlive := uint64(0)
		for v := uint32(0); v < g.NLoc; v++ {
			if alive[v] {
				colors[v] = g.GlobalID(v)
				anyAlive++
			} else {
				colors[v] = deadColor
			}
		}
		globalAlive, err := comm.Allreduce(ctx.Comm, anyAlive, comm.OpSum)
		if err != nil {
			return nil, err
		}
		if globalAlive > 0 {
			if err := Exchange(ctx, halo, colors); err != nil {
				return nil, err
			}
			for {
				// Gauss-Seidel min propagation with relaxed atomics; see
				// the matching loop in wcc.go for why the race is benign.
				changed := ctx.Pool.SumRangeU64(int(g.NLoc), func(i int) uint64 {
					v := uint32(i)
					if !alive[v] {
						return 0
					}
					c := atomic.LoadUint32(&colors[v])
					old := c
					for _, u := range g.OutNeighbors(v) {
						if uc := atomic.LoadUint32(&colors[u]); uc < c {
							c = uc
						}
					}
					for _, u := range g.InNeighbors(v) {
						if uc := atomic.LoadUint32(&colors[u]); uc < c {
							c = uc
						}
					}
					if c < old {
						atomic.StoreUint32(&colors[v], c)
						return 1
					}
					return 0
				})
				globalChanged, err := comm.Allreduce(ctx.Comm, changed, comm.OpSum)
				if err != nil {
					return nil, err
				}
				if globalChanged == 0 {
					break
				}
				if err := Exchange(ctx, halo, colors); err != nil {
					return nil, err
				}
			}
			owned, err := aggregateLabelCounts(ctx, g, colors[:g.NLoc], func(v uint32) bool { return alive[v] })
			if err != nil {
				return nil, err
			}
			largestLbl, _, ok, err := largestLabel(ctx, owned)
			if err != nil {
				return nil, err
			}
			if ok {
				// Cut survivors outside the largest component. Their alive
				// neighbors are necessarily cut with them (same component),
				// so no degree notifications are needed.
				for v := uint32(0); v < g.NLoc; v++ {
					if alive[v] && colors[v] != largestLbl {
						alive[v] = false
					}
				}
			}
		}

		for v := uint32(0); v < g.NLoc; v++ {
			if ub[v] == 0 && !alive[v] {
				ub[v] = uint32(k)
			}
		}
		tr.Span(SpanKCoreLevel, mark, int64(level))
	}
	for v := uint32(0); v < g.NLoc; v++ {
		if ub[v] == 0 {
			ub[v] = 1 << levels
		}
	}
	return &KCoreResult{CorenessUB: ub, Levels: levels}, nil
}
