package analytics

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/core"
)

// unassigned marks vertices not yet claimed by any SCC.
const unassigned = ^uint32(0)

// SCCResult describes strongly connected components.
type SCCResult struct {
	// Labels[v] identifies owned local vertex v's SCC by the global id of
	// one member (the pivot for the FW-BW component, singleton ids for
	// trimmed vertices, coloring roots for the rest).
	Labels []uint32
	// NumComponents is the global number of SCCs.
	NumComponents uint64
	// LargestLabel and LargestSize identify the largest SCC.
	LargestLabel uint32
	LargestSize  uint64
	// Trimmed counts vertices resolved by the trim phase (in- or
	// out-degree zero, necessarily singleton SCCs).
	Trimmed uint64
}

// LargestSCC extracts the largest strongly connected component with the
// paper's analytic (trim + one Forward-Backward sweep from a high-degree
// pivot, citation [9]): InLargest[v] reports membership of owned local
// vertex v.
type LargestSCCResult struct {
	InLargest []bool
	Pivot     uint32
	Size      uint64
	Trimmed   uint64
}

// SCC computes the full SCC decomposition with the Multistep scheme of the
// paper's citation [31]: trim singleton SCCs, extract the giant SCC with
// Forward-Backward from a high-degree pivot, then decompose the remainder
// by repeated forward max-coloring plus backward sweeps from color roots.
func SCC(ctx *core.Ctx, g *core.Graph) (*SCCResult, error) {
	if err := require1D(g, "SCC"); err != nil {
		return nil, err
	}
	ctx = withJobPlans(ctx)
	comp, trimmed, err := trim(ctx, g)
	if err != nil {
		return nil, err
	}

	if _, err := fwbw(ctx, g, comp); err != nil {
		return nil, err
	}

	if err := colorDecompose(ctx, g, comp); err != nil {
		return nil, err
	}

	numComponents, err := countRepresentatives(ctx, g, comp)
	if err != nil {
		return nil, err
	}
	owned, err := aggregateLabelCounts(ctx, g, comp, nil)
	if err != nil {
		return nil, err
	}
	largestLbl, largestSize, _, err := largestLabel(ctx, owned)
	if err != nil {
		return nil, err
	}
	return &SCCResult{
		Labels:        comp,
		NumComponents: numComponents,
		LargestLabel:  largestLbl,
		LargestSize:   largestSize,
		Trimmed:       trimmed,
	}, nil
}

// LargestSCC runs only the paper's SCC analytic: trim plus one FW-BW sweep.
// The trim's halo serves both of the sweep's traversals.
func LargestSCC(ctx *core.Ctx, g *core.Graph) (*LargestSCCResult, error) {
	if err := require1D(g, "SCC"); err != nil {
		return nil, err
	}
	ctx = withJobPlans(ctx)
	comp, trimmed, err := trim(ctx, g)
	if err != nil {
		return nil, err
	}
	pivotGid, err := fwbw(ctx, g, comp)
	if err != nil {
		return nil, err
	}

	in := make([]bool, g.NLoc)
	var localSize uint64
	for v := uint32(0); v < g.NLoc; v++ {
		if comp[v] == pivotGid && comp[v] != unassigned {
			in[v] = true
			localSize++
		}
	}
	size, err := comm.Allreduce(ctx.Comm, localSize, comm.OpSum)
	if err != nil {
		return nil, err
	}
	return &LargestSCCResult{InLargest: in, Pivot: pivotGid, Size: size, Trimmed: trimmed}, nil
}

// trim assigns singleton SCCs to the vertices whose remaining in- or
// out-degree falls to zero (Forward-Backward's standard preprocessing): a
// slotPeel at threshold 1 whose counter 0 is the in-degree and counter 1 the
// out-degree. It returns the owned vertices' SCC labels, unassigned for the
// untrimmed, and this rank's count of trimmed vertices.
func trim(ctx *core.Ctx, g *core.Graph) ([]uint32, uint64, error) {
	s, err := newSlotPeel(ctx, g, "SCC trim", 1)
	if err != nil {
		return nil, 0, err
	}
	for v := range g.NLoc {
		s.rem[v<<1], s.rem[v<<1|1] = uint32(g.InDegree(v)), uint32(g.OutDegree(v))
	}
	if _, err := s.run(ctx, 1, SpanSCCTrimRound); err != nil {
		return nil, 0, err
	}
	comp := make([]uint32, g.NLoc)
	for v := range g.NLoc {
		comp[v] = unassigned
		if s.peeled[v] {
			comp[v] = g.GlobalID(v)
		}
	}
	return comp, uint64(int(g.NLoc) - s.live), nil
}

// fwbw claims the pivot's SCC — the pivot is the unassigned vertex with the
// largest in*out degree product — as the vertices that both a forward and a
// backward BFS from it reach. The traversals do not skip assigned vertices:
// every vertex assigned so far is a trimmed singleton SCC, which the pivot's
// SCC cannot contain, so the two reaches still meet in exactly that SCC.
// Returns the pivot's global id (or unassigned if nothing is left).
func fwbw(ctx *core.Ctx, g *core.Graph, comp []uint32) (uint32, error) {
	tr := ctx.Comm.Tracer()
	mark := tr.Now()
	var bestScore uint64
	bestGid := unassigned
	for v := uint32(0); v < g.NLoc; v++ {
		if comp[v] != unassigned {
			continue
		}
		score := (g.InDegree(v) + 1) * (g.OutDegree(v) + 1)
		if bestGid == unassigned || score > bestScore {
			bestScore, bestGid = score, g.GlobalID(v)
		}
	}
	score := bestScore
	if bestGid == unassigned {
		score = 0
	}
	best, payload, _, err := comm.MaxLoc(ctx.Comm, score, uint64(bestGid))
	if err != nil {
		return 0, err
	}
	if best == 0 {
		return unassigned, nil // no unassigned vertices anywhere
	}
	pivot := uint32(payload)

	fw, err := BFS(ctx, g, pivot, Forward)
	if err != nil {
		return 0, err
	}
	bw, err := BFS(ctx, g, pivot, Backward)
	if err != nil {
		return 0, err
	}
	for v := range g.NLoc {
		if fw.Levels[v] >= 0 && bw.Levels[v] >= 0 {
			comp[v] = pivot
		}
	}
	tr.Span(SpanSCCFwBw, mark, int64(pivot))
	return pivot, nil
}

// colorDecompose resolves all remaining SCCs: repeatedly propagate maximum
// vertex ids forward to a fixed point (PageRank-like), then sweep backward
// from each color root within its color region, assigning the root's id to
// everything reached — exactly the swept set is the root's SCC.
func colorDecompose(ctx *core.Ctx, g *core.Graph, comp []uint32) error {
	rd, err := newClaimRound(ctx, g, "SCC")
	if err != nil {
		return err
	}
	col := newPropagation(g, rd)
	// colors[u] is gid+1 for active vertices and 0, the max combine's
	// identity, for assigned ones, which never take or pass on a color.
	// The backward sweeps' labels double a color, so it has to fit 31 bits.
	if g.NGlobal >= 1<<31 {
		return fmt.Errorf("analytics: SCC decomposition colors in 31 bits; the graph has %d vertices", g.NGlobal)
	}
	colors := make([]uint32, g.NTotal())
	reach := make([]uint32, g.NTotal())
	tr := ctx.Comm.Tracer()
	for round := int64(0); ; round++ {
		mark := tr.Now()
		for v, gid := range g.Unmap {
			colors[v] = gid + 1
		}
		var active uint64
		for v := range g.NLoc {
			if comp[v] == unassigned {
				active++
			} else {
				colors[v] = ^colorMax
			}
		}
		globalActive, err := comm.Allreduce(ctx.Comm, active, comm.OpSum)
		if err != nil {
			return err
		}
		if globalActive == 0 {
			tr.Span(SpanSCCColorRound, mark, round)
			return nil
		}
		// Forward max propagation: a forward edge u->v raises v's color to
		// u's. The backward sweeps start ghosts at bounds from their exact
		// colors, which the coloring only bounds, so a halo refresh follows.
		if err := col.run(ctx, colors, Forward, colorMax, g.NGlobal, SpanColorHop); err != nil {
			return err
		}
		if err := Exchange(ctx, rd.h, colors); err != nil {
			return err
		}
		// The backward sweeps from the roots, each within its color region,
		// are one min coloring: a vertex of color c holds 2c+1 until the
		// sweep reaches it and 2c after, roots from the start. A reached
		// vertex's 2c improves an in-neighbor of its own color and no other:
		// a forward edge never lowers a color, so an in-neighbor's color c'
		// is at most c, and 2c'+1 < 2c unless c' = c.
		for v, c := range colors {
			reach[v] = 2*c + 1
		}
		for v := range g.NLoc {
			switch {
			case comp[v] != unassigned:
				reach[v] = ^colorMin
			case colors[v] == g.GlobalID(v)+1:
				reach[v]--
			}
		}
		if err := col.run(ctx, reach, Backward, colorMin, 2*g.NGlobal+1, SpanColorHop); err != nil {
			return err
		}
		for v := range g.NLoc {
			if comp[v] == unassigned && reach[v]%2 == 0 {
				comp[v] = colors[v] - 1
			}
		}
		tr.Span(SpanSCCColorRound, mark, round)
	}
}
