package analytics

import (
	"sync/atomic"

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
	comp := make([]uint32, g.NLoc)
	for v := range comp {
		comp[v] = unassigned
	}

	trimmed, err := trim(ctx, g, comp)
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
func LargestSCC(ctx *core.Ctx, g *core.Graph) (*LargestSCCResult, error) {
	if err := require1D(g, "SCC"); err != nil {
		return nil, err
	}
	comp := make([]uint32, g.NLoc)
	for v := range comp {
		comp[v] = unassigned
	}
	trimmed, err := trim(ctx, g, comp)
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

// trim iteratively assigns singleton SCCs to vertices whose remaining in-
// or out-degree is zero (Forward-Backward's standard preprocessing).
// Death notifications cross ranks as packed (gid<<1 | isOutDecrement)
// messages.
func trim(ctx *core.Ctx, g *core.Graph, comp []uint32) (uint64, error) {
	inDeg := make([]int64, g.NLoc)
	outDeg := make([]int64, g.NLoc)
	for v := uint32(0); v < g.NLoc; v++ {
		inDeg[v] = int64(g.InDegree(v))
		outDeg[v] = int64(g.OutDegree(v))
	}
	var trimmed uint64
	tr := ctx.Comm.Tracer()
	for {
		mark := tr.Now()
		// Find this round's deaths.
		var dead []uint32
		for v := uint32(0); v < g.NLoc; v++ {
			if comp[v] == unassigned && (inDeg[v] <= 0 || outDeg[v] <= 0) {
				comp[v] = g.GlobalID(v)
				dead = append(dead, v)
			}
		}
		trimmed += uint64(len(dead))
		globalDead, err := comm.Allreduce(ctx.Comm, uint64(len(dead)), comm.OpSum)
		if err != nil {
			return 0, err
		}
		if globalDead == 0 {
			tr.Span(SpanSCCTrimRound, mark, int64(len(dead)))
			return trimmed, nil
		}
		// Notify neighbors: v's out-edge (v,u) lowers u's in-degree; v's
		// in-edge (u,v) lowers u's out-degree.
		p := ctx.Size()
		counts := make([]int, p)
		perDest := make([][]uint64, p)
		dec := func(lid uint32, outBit uint64) {
			if outBit == 1 {
				outDeg[lid]--
			} else {
				inDeg[lid]--
			}
		}
		push := func(u uint32, outBit uint64) {
			if u < g.NLoc {
				dec(u, outBit)
				return
			}
			d := g.GhostOwner[u-g.NLoc]
			perDest[d] = append(perDest[d], uint64(g.GlobalID(u))<<1|outBit)
		}
		for _, v := range dead {
			for _, u := range g.OutNeighbors(v) {
				push(u, 0) // decrement u's in-degree
			}
			for _, u := range g.InNeighbors(v) {
				push(u, 1) // decrement u's out-degree
			}
		}
		var send []uint64
		for d := 0; d < p; d++ {
			counts[d] = len(perDest[d])
			send = append(send, perDest[d]...)
		}
		recv, recvCounts, err := comm.Alltoallv(ctx.Comm, send, counts)
		if err != nil {
			return 0, err
		}
		for r, n := range recvCounts {
			for _, msg := range recv[:n] {
				gid := msg >> 1
				lid := g.LocalID(uint32(gid))
				if gid>>32 != 0 || lid == core.InvalidLocal || lid >= g.NLoc {
					return 0, corruptFrom(ctx, r, "SCC trim decrement for vertex %d, which this rank does not own", gid)
				}
				dec(lid, msg&1)
			}
			recv = recv[n:]
		}
		tr.Span(SpanSCCTrimRound, mark, int64(len(dead)))
	}
}

// fwbw claims the pivot's SCC: the intersection of the forward and backward
// reachable sets from the unassigned vertex with the largest in*out degree
// product. Returns the pivot's global id (or unassigned if nothing is
// left).
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

	fw, err := sweep(ctx, g, comp, rootsOf(g, pivot), Forward, nil)
	if err != nil {
		return 0, err
	}
	bw, err := sweep(ctx, g, comp, rootsOf(g, pivot), Backward, nil)
	if err != nil {
		return 0, err
	}
	for v := uint32(0); v < g.NLoc; v++ {
		if fw[v] && bw[v] {
			comp[v] = pivot
		}
	}
	tr.Span(SpanSCCFwBw, mark, int64(pivot))
	return pivot, nil
}

// rootsOf returns the local seed list for a single global root: the owning
// rank seeds it, everyone else starts empty.
func rootsOf(g *core.Graph, root uint32) []uint32 {
	if lid := g.LocalID(root); lid != core.InvalidLocal && lid < g.NLoc {
		return []uint32{lid}
	}
	return nil
}

// sweep marks the owned vertices reachable from the seed set along dir,
// restricted to unassigned vertices; when colorOf is non-nil the sweep
// additionally stays within the seed's color region (colorOf(u) of every
// visited u must equal colorOf(v) of the visiting v — used by the
// Multistep backward sweeps).
func sweep(ctx *core.Ctx, g *core.Graph, comp []uint32, seeds []uint32, dir Dir, colorOf []uint32) ([]bool, error) {
	visited := make([]int32, g.NTotal()) // 0 = no, 1 = yes (CAS-claimed)
	queue := make([]uint32, 0, len(seeds))
	for _, v := range seeds {
		if comp[v] == unassigned || (colorOf != nil) {
			visited[v] = 1
			queue = append(queue, v)
		}
	}
	// Under coloring, seeds are roots whose comp was just assigned by the
	// caller; without coloring, seeds must be unassigned.

	var fsc frontierScratch
	for {
		nt := ctx.Pool.Threads()
		sendPer := make([][]uint32, nt)
		nextPer := make([][]uint32, nt)
		ctx.Pool.For(len(queue), func(lo, hi, tid int) {
			var snd, nxt []uint32
			for i := lo; i < hi; i++ {
				v := queue[i]
				var myColor uint32
				if colorOf != nil {
					myColor = colorOf[v]
				}
				visit := func(u uint32) {
					if colorOf != nil && colorOf[u] != myColor {
						return
					}
					if u < g.NLoc && comp[u] != unassigned {
						return
					}
					if atomic.CompareAndSwapInt32(&visited[u], 0, 1) {
						if u < g.NLoc {
							nxt = append(nxt, u)
						} else {
							snd = append(snd, u)
						}
					}
				}
				if dir == Forward || dir == Und {
					for _, u := range g.OutNeighbors(v) {
						visit(u)
					}
				}
				if dir == Backward || dir == Und {
					for _, u := range g.InNeighbors(v) {
						visit(u)
					}
				}
			}
			nextPer[tid] = append(nextPer[tid], nxt...)
			sendPer[tid] = append(sendPer[tid], snd...)
		})
		var next, send []uint32
		for t := 0; t < nt; t++ {
			next = append(next, nextPer[t]...)
			send = append(send, sendPer[t]...)
		}
		arrived, err := exchangeFrontier(ctx, g, send, &fsc)
		if err != nil {
			return nil, err
		}
		for _, lid := range arrived {
			if comp[lid] != unassigned {
				continue
			}
			if visited[lid] == 0 {
				visited[lid] = 1
				next = append(next, lid)
			}
		}
		queue = next
		globalSize, err := comm.Allreduce(ctx.Comm, uint64(len(queue)), comm.OpSum)
		if err != nil {
			return nil, err
		}
		if globalSize == 0 {
			break
		}
	}
	out := make([]bool, g.NLoc)
	for v := range out {
		out[v] = visited[v] == 1
	}
	return out, nil
}

// colorDecompose resolves all remaining SCCs: repeatedly propagate maximum
// vertex ids forward to a fixed point (PageRank-like), then sweep backward
// from each color root within its color region (BFS-like), assigning the
// root's id to everything reached — exactly the swept set is the root's
// SCC.
func colorDecompose(ctx *core.Ctx, g *core.Graph, comp []uint32) error {
	halo, _, err := haloFor(ctx, g, DirsBoth)
	if err != nil {
		return err
	}
	// colors[u] is gid+1 for active vertices, 0 for assigned ones (0 never
	// wins a max, so assigned vertices never propagate).
	colors := make([]uint32, g.NTotal())
	tr := ctx.Comm.Tracer()
	for round := int64(0); ; round++ {
		mark := tr.Now()
		var active uint64
		for v := uint32(0); v < g.NLoc; v++ {
			if comp[v] == unassigned {
				colors[v] = g.GlobalID(v) + 1
				active++
			} else {
				colors[v] = 0
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
		if err := Exchange(ctx, halo, colors); err != nil {
			return err
		}
		// Forward max propagation: v's color rises to the max among its
		// in-neighbors' colors (a forward edge u->v pushes u's color to v).
		// Gauss-Seidel with relaxed atomics; see wcc.go for why the race
		// is benign.
		for {
			changed := ctx.Pool.SumRangeU64(int(g.NLoc), func(i int) uint64 {
				v := uint32(i)
				if comp[v] != unassigned {
					return 0
				}
				c := atomic.LoadUint32(&colors[v])
				old := c
				for _, u := range g.InNeighbors(v) {
					if uc := atomic.LoadUint32(&colors[u]); uc > c {
						c = uc
					}
				}
				if c > old {
					atomic.StoreUint32(&colors[v], c)
					return 1
				}
				return 0
			})
			globalChanged, err := comm.Allreduce(ctx.Comm, changed, comm.OpSum)
			if err != nil {
				return err
			}
			if globalChanged == 0 {
				break
			}
			if err := Exchange(ctx, halo, colors); err != nil {
				return err
			}
		}
		// Roots: active vertices that kept their own color. Assign and
		// sweep backward within the color region.
		var roots []uint32
		for v := uint32(0); v < g.NLoc; v++ {
			if comp[v] == unassigned && colors[v] == g.GlobalID(v)+1 {
				comp[v] = g.GlobalID(v)
				roots = append(roots, v)
			}
		}
		swept, err := sweep(ctx, g, comp, roots, Backward, colors)
		if err != nil {
			return err
		}
		for v := uint32(0); v < g.NLoc; v++ {
			if comp[v] == unassigned && swept[v] {
				comp[v] = colors[v] - 1
			}
		}
		tr.Span(SpanSCCColorRound, mark, round)
	}
}
