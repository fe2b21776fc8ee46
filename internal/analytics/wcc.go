package analytics

import (
	"slices"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/obs"
)

// WCCResult describes the weakly connected components of the graph.
type WCCResult struct {
	// Labels[v] identifies owned local vertex v's component. Each label is
	// the global id of one member (the BFS root for the giant component,
	// the minimum member id for the rest), so equal label == same
	// component.
	Labels []uint32
	// NumComponents is the global number of weakly connected components.
	NumComponents uint64
	// LargestLabel and LargestSize identify the largest component.
	LargestLabel uint32
	LargestSize  uint64
	// BFSReached is the number of vertices claimed by the Multistep BFS
	// phase (diagnostic: how much work the cheap phase saved the coloring
	// phase).
	BFSReached uint64
	// Traversal records the BFS phase's adaptive-engine choices (zero for
	// the single-stage configuration). The coloring phase's halo is built
	// up front and shared with the traversal engine, so Multistep WCC pays
	// for at most one halo no matter which modes the BFS picks.
	Traversal obs.TraversalStats
}

// WCC computes weakly connected components with the distributed Multistep
// scheme the paper adopts: a BFS-like phase claims the (expected) giant
// component from the highest-degree vertex, then a PageRank-like coloring
// phase resolves everything else by propagating minimum labels to a fixed
// point. Edge direction is ignored throughout.
func WCC(ctx *core.Ctx, g *core.Graph) (*WCCResult, error) {
	return wcc(ctx, g, true)
}

// WCCSingleStage computes weakly connected components with the traditional
// single-stage approach (min-label coloring over the whole graph, no BFS
// phase) — the configuration the paper's Multistep choice outperforms;
// kept for the ablation benchmark.
func WCCSingleStage(ctx *core.Ctx, g *core.Graph) (*WCCResult, error) {
	return wcc(ctx, g, false)
}

func wcc(ctx *core.Ctx, g *core.Graph, multistep bool) (*WCCResult, error) {
	if g.Is2D() {
		return wcc2D(ctx, g, multistep)
	}
	// The coloring's claim round needs the DirsBoth halo; fetching it up
	// front lets the BFS phase's engine find it in the plan cache for its
	// frontier exchanges instead of constructing its own.
	ctx = withJobPlans(ctx)
	rd, err := newClaimRound(ctx, g, "WCC")
	if err != nil {
		return nil, err
	}

	// Phase 1: undirected BFS from the globally highest-degree vertex.
	var bfs *BFSResult
	var root uint32
	if multistep {
		root, err = maxDegreeVertex(ctx, g)
		if err != nil {
			return nil, err
		}
		bfs, err = BFS(ctx, g, root, Und)
		if err != nil {
			return nil, err
		}
	} else {
		bfs = &BFSResult{Levels: make([]int32, g.NLoc)}
		for v := range bfs.Levels {
			bfs.Levels[v] = -1 // nothing claimed; coloring does all work
		}
	}

	// Phase 2: minimum-label coloring over the unclaimed remainder. A vertex
	// claimed by BFS never neighbors an unclaimed one (BFS exhausted its
	// component), so claimed vertices are inactive and every ghost's bound
	// starts at its own id.
	colors := slices.Clone(g.Unmap)
	for v := uint32(0); v < g.NLoc; v++ {
		if bfs.Levels[v] >= 0 {
			colors[v] = ^colorMin
		}
	}
	if err := newPropagation(g, rd).run(ctx, colors, Und, colorMin, g.NGlobal-1, SpanWCCColorRound); err != nil {
		return nil, err
	}

	labels := colors[:g.NLoc:g.NLoc]
	for v, l := range bfs.Levels {
		if l >= 0 {
			labels[v] = root
		}
	}

	// Component census. Labels are member ids, but the BFS component's
	// label is the root, which may not be its minimum member — normalize
	// the representative count by treating the root as its component's
	// representative.
	numComponents, err := countRepresentatives(ctx, g, labels)
	if err != nil {
		return nil, err
	}
	owned, err := aggregateLabelCounts(ctx, g, labels, nil)
	if err != nil {
		return nil, err
	}
	largestLbl, largestSize, _, err := largestLabel(ctx, owned)
	if err != nil {
		return nil, err
	}
	return &WCCResult{
		Labels:        labels,
		NumComponents: numComponents,
		LargestLabel:  largestLbl,
		LargestSize:   largestSize,
		BFSReached:    bfs.Reached,
		Traversal:     bfs.Traversal,
	}, nil
}

// maxDegreeVertex returns the global id of the vertex with the highest
// undirected degree (ties toward the lowest rank's candidate, then the
// candidate that rank chose first).
func maxDegreeVertex(ctx *core.Ctx, g *core.Graph) (uint32, error) {
	var bestDeg uint64
	bestGid := uint32(0)
	found := false
	for v := uint32(0); v < g.NLoc; v++ {
		d := g.OutDegree(v) + g.InDegree(v)
		if !found || d > bestDeg {
			bestDeg, bestGid, found = d, g.GlobalID(v), true
		}
	}
	_, payload, _, err := comm.MaxLoc(ctx.Comm, bestDeg, uint64(bestGid))
	if err != nil {
		return 0, err
	}
	return uint32(payload), nil
}
