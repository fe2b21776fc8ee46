package analytics

import (
	"fmt"

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
// of BFS"-style): for thresholds 2^i, i = 1..levels, peel every vertex whose
// remaining undirected degree falls below the threshold (BFS-like rounds of
// aggregated cross-rank degree decrements: a peel), then keep only the
// largest connected component of the survivors (a min-label coloring plus a
// global census). Everything removed at level i is bounded by coreness 2^i.
// The paper runs levels=27 on the full crawl; levels must lie in [1, 31].
func KCoreApprox(ctx *core.Ctx, g *core.Graph, levels int) (*KCoreResult, error) {
	if levels < 1 || levels > 31 {
		return nil, fmt.Errorf("analytics: k-core takes 1 to 31 threshold levels, not %d", levels)
	}
	if err := require1D(g, "k-core"); err != nil {
		return nil, err
	}
	s, err := newPeel(ctx, g, "k-core", 0)
	if err != nil {
		return nil, err
	}
	col := newPropagation(g, s.rd)
	colors := make([]uint32, g.NTotal())
	tr := ctx.Comm.Tracer()
	for level := 1; level <= levels; level++ {
		mark := tr.Now()
		below := uint32(1) << level
		least, err := s.run(ctx, below, SpanKCorePeelRound)
		if err != nil {
			return nil, err
		}
		if least != ctlNone {
			// Largest-component cut: min-label coloring over the survivors,
			// every ghost's bound starting at its own id.
			copy(colors, g.Unmap)
			for v := range g.NLoc {
				if s.level[v] != kcoreRest {
					colors[v] = ^colorMin
				}
			}
			if err := col.run(ctx, colors, Und, colorMin, g.NGlobal-1, SpanColorHop); err != nil {
				return nil, err
			}
			owned, err := aggregateLabelCounts(ctx, g, colors[:g.NLoc], func(v uint32) bool { return s.level[v] == kcoreRest })
			if err != nil {
				return nil, err
			}
			largestLbl, _, _, err := largestLabel(ctx, owned)
			if err != nil {
				return nil, err
			}
			// Cut survivors outside the largest component. Their alive
			// neighbors are necessarily cut with them (same component), so
			// no degree notifications are needed: no edge is left to report
			// to a cut vertex, and its counter drops to that.
			for v := range g.NLoc {
				if s.level[v] == kcoreRest && colors[v] != largestLbl {
					s.level[v], s.rem[0][v] = below-1, 0
				}
			}
			s.scanned = false
		}
		tr.Span(SpanKCoreLevel, mark, int64(level))
	}
	for v, l := range s.level { // the threshold it died below, or 2^levels
		s.level[v] = min(l, 1<<levels-1) + 1
	}
	return &KCoreResult{CorenessUB: s.level, Levels: levels}, nil
}

// Exact k-core decomposition by level-synchronous peeling, without a
// priority structure: at Δ=1 every decrement would move its vertex one
// bucket, so the peel keeps one counter per vertex and finds each level —
// the smallest remaining degree anywhere — by scanning the vertices still
// alive. Level k is a peel run below k+1: every vertex whose remaining
// degree has fallen to k dies (its coreness is exactly k), and a dead
// vertex's owned neighbours that drop to k die in the same sub-round, so
// only a chain's rank crossings cost a round. The run's closing round, in
// which nobody died, carries every rank's least live degree: the next
// level. A level costs one round, a sub-round one round, and there is no
// other collective. Unlike KCoreApprox's powers-of-two upper bounds, this
// yields the exact coreness of every vertex.

// KCoreExactResult carries exact per-vertex coreness and run metadata.
type KCoreExactResult struct {
	// Coreness[v] is the exact coreness of owned local vertex v under
	// undirected degree (parallel edges counted per copy, self-loops twice,
	// matching KCoreApprox's degree convention).
	Coreness []uint32
	// MaxCore is the global maximum coreness (the degeneracy).
	MaxCore uint32
	// Rounds is the number of peel sub-rounds: rounds in which some rank
	// peeled. It depends on which vertices share a rank (a chain inside one
	// rank unzips in a single sub-round); the counts below do not.
	Rounds int
	// Levels is the number of distinct coreness values.
	Levels int
	// Peeled and Scanned count the vertices this rank peeled and the edge
	// endpoints it scanned doing so: NLoc and MOut+MIn.
	Peeled, Scanned uint64
}

// KCoreExact computes the exact coreness of every owned vertex. Collective.
func KCoreExact(ctx *core.Ctx, g *core.Graph) (*KCoreExactResult, error) {
	if err := require1D(g, "exact k-core"); err != nil {
		return nil, err
	}
	s, err := newPeel(ctx, g, "exact k-core", 0)
	if err != nil {
		return nil, err
	}
	tr := ctx.Comm.Tracer()
	// below is the open level plus one; the first run only finds the first.
	below, levels, mark := uint32(0), 0, tr.Now()
	for {
		least, err := s.run(ctx, below, "")
		if err != nil {
			return nil, err
		}
		if below > 0 {
			tr.Span(SpanKCorePeel, mark, int64(below-1))
		}
		if least == ctlNone {
			return &KCoreExactResult{Coreness: s.level, MaxCore: max(below, 1) - 1, Rounds: s.rounds,
				Levels: levels, Peeled: s.deaths, Scanned: s.edges}, nil
		}
		below, levels, mark = least+1, levels+1, tr.Now()
	}
}
