package analytics

import "repro/internal/core"

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
// aggregated cross-rank degree decrements: a slotPeel), then keep only the
// largest connected component of the survivors (a min-label coloring plus a
// global census). Everything removed at level i is bounded by coreness 2^i.
// The paper runs levels=27 on the full crawl.
func KCoreApprox(ctx *core.Ctx, g *core.Graph, levels int) (*KCoreResult, error) {
	if err := require1D(g, "k-core"); err != nil {
		return nil, err
	}
	s, err := newSlotPeel(ctx, g, "k-core", 0)
	if err != nil {
		return nil, err
	}
	for v := range g.NLoc {
		s.rem[v] = uint32(g.OutDegree(v) + g.InDegree(v))
	}
	col := newPropagation(g, s.rd)
	colors := make([]uint32, g.NTotal())
	ub := make([]uint32, g.NLoc)
	tr := ctx.Comm.Tracer()
	for level := 1; level <= levels; level++ {
		mark := tr.Now()
		k := uint64(1) << level
		survivors, err := s.run(ctx, k, SpanKCorePeelRound)
		if err != nil {
			return nil, err
		}
		if survivors {
			// Largest-component cut: min-label coloring over the survivors,
			// every ghost's bound starting at its own id.
			copy(colors, g.Unmap)
			for v := range g.NLoc {
				if s.peeled[v] {
					colors[v] = ^colorMin
				}
			}
			if err := col.run(ctx, colors, Und, colorMin, g.NGlobal-1, SpanColorHop); err != nil {
				return nil, err
			}
			owned, err := aggregateLabelCounts(ctx, g, colors[:g.NLoc], func(v uint32) bool { return !s.peeled[v] })
			if err != nil {
				return nil, err
			}
			largestLbl, _, _, err := largestLabel(ctx, owned)
			if err != nil {
				return nil, err
			}
			// Cut survivors outside the largest component. Their alive
			// neighbors are necessarily cut with them (same component), so
			// no degree notifications are needed.
			for v := range g.NLoc {
				if !s.peeled[v] && colors[v] != largestLbl {
					s.peeled[v] = true
					s.live--
				}
			}
		}
		for v := range g.NLoc {
			if ub[v] == 0 && s.peeled[v] {
				ub[v] = uint32(k)
			}
		}
		tr.Span(SpanKCoreLevel, mark, int64(level))
	}
	for v := range g.NLoc {
		if ub[v] == 0 {
			ub[v] = 1 << levels
		}
	}
	return &KCoreResult{CorenessUB: ub, Levels: levels}, nil
}
