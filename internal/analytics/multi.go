package analytics

import (
	"fmt"
	"sync/atomic"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
)

// Multi-source variants of the two Graph500-style traversals. The serve
// layer coalesces pending single-source queries into one of these runs, so
// the graph is swept once per batch instead of once per request: the
// frontier carries (vertex, source) pairs and the cross-rank exchange ships
// them packed into one uint64 stream, reusing the single-source routing and
// the existing Alltoallv — no new collective, no per-source rounds.
//
// The packing reserves the low 8 bits for the source index, which bounds a
// batch at MaxSources and keeps a packed global id in 40 bits.

// MaxSources is the largest batch a multi-source traversal accepts.
const MaxSources = 256

// pack combines a vertex id (local or global, depending on the stream) with
// a source index into one exchange word.
func pack(v uint32, s int) uint64 { return uint64(v)<<8 | uint64(s) }

// unpack splits an exchange word back into (vertex, source index).
func unpack(w uint64) (uint32, int) { return uint32(w >> 8), int(w & 0xff) }

// checkRoots validates a multi-source root set against the graph.
func checkRoots(g *core.Graph, roots []uint32, what string) error {
	if len(roots) == 0 {
		return fmt.Errorf("analytics: %s with no sources", what)
	}
	if len(roots) > MaxSources {
		return fmt.Errorf("analytics: %s with %d sources (max %d)", what, len(roots), MaxSources)
	}
	for _, r := range roots {
		if r >= g.NGlobal {
			return fmt.Errorf("analytics: %s root %d outside %d vertices", what, r, g.NGlobal)
		}
	}
	return nil
}

// MultiBFSResult carries one BFS answer per source of a batched run.
type MultiBFSResult struct {
	// Levels[s][v] is the depth of owned local vertex v from source s, or
	// -1 if unreachable.
	Levels [][]int32
	// Reached[s] is the global number of vertices visited from source s.
	Reached []uint64
	// Depth[s] is the eccentricity observed from source s (-1 when the
	// source is isolated on a remote rank... i.e. never, the root itself
	// is level 0, so -1 only for an empty traversal).
	Depth []int
	// Traversal records the batch's per-level claim-representation choices
	// (multi-source levels are always push-direction: the per-source pull
	// scan would multiply the whole-graph sweep by the batch size).
	Traversal obs.TraversalStats
}

// MultiBFS runs level-synchronous BFS from every root concurrently: one
// shared frontier of (vertex, source) pairs, one Alltoallv per level for
// the whole batch. Each source's answer is bit-identical to a solo BFS
// call with the same root and direction.
//
// Claims travel either as the sparse packed (global id, source) words or,
// when one packed word per (vertex, source) claim would out-weigh it, as
// the engine's fused dense exchange: one claim bit per halo slot followed
// by a k-bit source mask per claimed ghost — claims for the same vertex
// from different sources collapse into one mask.
func MultiBFS(ctx *core.Ctx, g *core.Graph, roots []uint32, dir Dir) (*MultiBFSResult, error) {
	if err := checkRoots(g, roots, "MultiBFS"); err != nil {
		return nil, err
	}
	if g.Is2D() {
		return multiBFS2D(ctx, g, roots, dir)
	}
	k := len(roots)
	status := make([][]int32, k)
	for s := range status {
		status[s] = newStatus(g)
	}
	var queue []uint64
	for s, root := range roots {
		if lid := g.LocalID(root); lid != core.InvalidLocal && lid < g.NLoc {
			status[s][lid] = statusPending
			queue = append(queue, pack(lid, s))
		}
	}
	reached := make([]uint64, k)
	depth := make([]int64, k)
	for s := range depth {
		depth[s] = -1
	}

	eng := newFrontierEngine(ctx, g)
	mw := par.BitmapWords(k)
	var claimMask []uint64     // NGst*mw source-mask accumulator (dense rounds)
	var claimedGhosts []uint32 // ghosts with a non-empty mask this level

	var msc multiScratch
	tr := ctx.Comm.Tracer()
	globalSize := uint64(1)
	for level := int32(0); globalSize != 0; level++ {
		mark := tr.Now()
		frontier := len(queue)
		for _, w := range queue {
			_, s := unpack(w)
			reached[s]++
			depth[s] = int64(level)
		}
		next, send, err := expandMultiFrontier(ctx, g, status, queue, level, dir)
		if err != nil {
			return nil, err
		}

		// Representation decision: sparse ships one packed 8-byte word per
		// (vertex, source) claim; dense ships the claim bitmap plus one
		// k-bit mask per claimed ghost. Both inputs are globally reduced so
		// every rank picks the same wire format; the first level piggybacks
		// the global halo width.
		claimedGhosts = claimedGhosts[:0]
		dense := false
		if eng.pol.Mode != core.TraversePush {
			if claimMask == nil {
				claimMask = make([]uint64, int(g.NGst)*mw)
			}
			for _, w := range send {
				lid, s := unpack(w)
				gi := int(lid-g.NLoc) * mw
				m := claimMask[gi : gi+mw]
				zero := true
				for _, x := range m {
					if x != 0 {
						zero = false
						break
					}
				}
				if zero {
					claimedGhosts = append(claimedGhosts, lid)
				}
				m[s>>6] |= 1 << (s & 63)
			}
			vals := [3]uint64{uint64(len(send)), uint64(len(claimedGhosts)), uint64(g.NGst)}
			n := 2
			if level == 0 {
				n = 3
			}
			red, err := comm.AllreduceSlice(ctx.Comm, vals[:n], comm.OpSum)
			if err != nil {
				return nil, err
			}
			if level == 0 {
				eng.gGhosts = red[2]
			}
			if eng.gGhosts > 0 {
				dense = eng.pol.Mode == core.TraverseDense ||
					8*red[0] > eng.gGhosts/8+8*uint64(mw)*red[1]
			}
		}

		if dense {
			if err := eng.ensureHalo(ctx); err != nil {
				return nil, err
			}
			err = eng.reverseValueExchange(ctx, claimedGhosts, mw,
				func(u uint32, dst []uint64) {
					copy(dst, claimMask[int(u-g.NLoc)*mw:int(u-g.NLoc+1)*mw])
				},
				func(v uint32, masks []uint64) error {
					par.ForEachSetBit(masks, k, func(s int) {
						if status[s][v] == statusUnvisited {
							status[s][v] = statusPending
							next = append(next, pack(v, s))
						}
					})
					return nil
				})
			if err != nil {
				return nil, err
			}
		} else {
			eng.noteSparse(len(send), 8)
			arrived, err := exchangeMultiFrontier(ctx, g, send, &msc)
			if err != nil {
				return nil, err
			}
			for _, w := range arrived {
				lid, s := unpack(w)
				if status[s][lid] == statusUnvisited {
					status[s][lid] = statusPending
					next = append(next, pack(lid, s))
				}
			}
		}
		// Reset the touched masks for the next level.
		for _, u := range claimedGhosts {
			gi := int(u-g.NLoc) * mw
			for i := gi; i < gi+mw; i++ {
				claimMask[i] = 0
			}
		}
		queue = next
		eng.stats.PushSteps++
		globalSize, err = comm.Allreduce(ctx.Comm, uint64(len(queue)), comm.OpSum)
		if err != nil {
			return nil, err
		}
		tr.Span(SpanBFSLevel, mark, int64(frontier))
	}

	levels := make([][]int32, k)
	for s := range levels {
		ls := make([]int32, g.NLoc)
		for v := range ls {
			if st := status[s][v]; st >= 0 {
				ls[v] = st
			} else {
				ls[v] = -1
			}
		}
		levels[s] = ls
	}
	totals, err := comm.AllreduceSlice(ctx.Comm, reached, comm.OpSum)
	if err != nil {
		return nil, err
	}
	maxDepths, err := comm.AllreduceSlice(ctx.Comm, depth, comm.OpMax)
	if err != nil {
		return nil, err
	}
	depths := make([]int, k)
	for s := range depths {
		depths[s] = int(maxDepths[s])
	}
	return &MultiBFSResult{Levels: levels, Reached: totals, Depth: depths, Traversal: eng.stats}, nil
}

// expandMultiFrontier is expandFrontier generalized to (vertex, source)
// pairs: each pair finalizes at the given level in its source's status
// array and claims that source's unvisited neighbors.
func expandMultiFrontier(ctx *core.Ctx, g *core.Graph, status [][]int32, queue []uint64, level int32, dir Dir) (next, send []uint64, err error) {
	nt := ctx.Pool.Threads()
	nextPer := make([][]uint64, nt)
	sendPer := make([][]uint64, nt)
	ctx.Pool.For(len(queue), func(lo, hi, tid int) {
		var nxt, snd []uint64
		for i := lo; i < hi; i++ {
			v, s := unpack(queue[i])
			st := status[s]
			atomic.StoreInt32(&st[v], level)
			visit := func(u uint32) {
				if atomic.CompareAndSwapInt32(&st[u], statusUnvisited, statusPending) {
					if u < g.NLoc {
						nxt = append(nxt, pack(u, s))
					} else {
						snd = append(snd, pack(u, s))
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
		nextPer[tid] = nxt
		sendPer[tid] = snd
	})
	for t := 0; t < nt; t++ {
		next = append(next, nextPer[t]...)
		send = append(send, sendPer[t]...)
	}
	return next, send, nil
}

// multiScratch retains exchangeMultiFrontier's staging buffers across the
// rounds of one batched traversal (the multi-source analogue of
// frontierScratch).
type multiScratch struct {
	counts     []uint64
	cur        []uint64
	sendCounts []int
	wsend      []uint64
	recv       []uint64
	recvCounts []int
	arrived    []uint64
}

// exchangeMultiFrontier routes packed (ghost lid, source) claims to the
// ghosts' owners as packed (global id, source) words and returns the packed
// (owned lid, source) words that arrived here, multiplicity preserved.
func exchangeMultiFrontier(ctx *core.Ctx, g *core.Graph, ghost []uint64, sc *multiScratch) ([]uint64, error) {
	p := ctx.Size()
	if cap(sc.counts) < p {
		sc.counts = make([]uint64, p)
		sc.cur = make([]uint64, p)
		sc.sendCounts = make([]int, p)
	}
	counts, cur, sendCounts := sc.counts[:p], sc.cur[:p], sc.sendCounts[:p]
	for i := range counts {
		counts[i] = 0
	}
	for _, w := range ghost {
		lid, _ := unpack(w)
		counts[g.GhostOwner[lid-g.NLoc]]++
	}
	var total uint64
	for d, c := range counts {
		cur[d] = total
		sendCounts[d] = int(c)
		total += c
	}
	if uint64(cap(sc.wsend)) < total {
		sc.wsend = make([]uint64, total)
	}
	wsend := sc.wsend[:total]
	for _, w := range ghost {
		lid, s := unpack(w)
		d := g.GhostOwner[lid-g.NLoc]
		wsend[cur[d]] = pack(g.GlobalID(lid), s)
		cur[d]++
	}
	recv, recvCounts, err := comm.AlltoallvInto(ctx.Comm, wsend, sendCounts, sc.recv, sc.recvCounts)
	if err != nil {
		return nil, err
	}
	sc.recv, sc.recvCounts = recv, recvCounts
	if cap(sc.arrived) < len(recv) {
		sc.arrived = make([]uint64, len(recv))
	}
	arrived := sc.arrived[:len(recv)]
	for i, w := range recv {
		gid, s := unpack(w)
		lid := g.LocalID(gid)
		if lid == core.InvalidLocal || lid >= g.NLoc {
			return nil, fmt.Errorf("analytics: frontier vertex %d arrived at non-owner", gid)
		}
		arrived[i] = pack(lid, s)
	}
	return arrived, nil
}

// MultiSSSPResult carries one SSSP answer per source of a batched run.
type MultiSSSPResult struct {
	// Dist[s][v] is the shortest-path distance from source s to owned
	// local vertex v, or InfDistance if unreachable.
	Dist [][]uint64
	// Rounds is the number of relaxation rounds the batch executed (the
	// max over sources, since all sources share the rounds).
	Rounds int
	// Reached[s] is the global number of vertices reachable from source s.
	Reached []uint64
	// Traversal records the batch's exchange counts and wire volume (always
	// push-direction, sparse representation — see MultiSSSP's doc).
	Traversal obs.TraversalStats
}

// MultiSSSP runs the queue-driven Bellman-Ford from every root
// concurrently, sharing each round's Alltoallv across the batch. Each
// source's distances equal a solo SSSP call with the same root and weights.
//
// MultiSSSP keeps the sparse representation unconditionally: each claim
// carries its own 8-byte distance, so a dense encoding would still ship
// per-claim payloads (per source, per vertex) and the bitmap prefix saves
// nothing once k distances ride behind it.
func MultiSSSP(ctx *core.Ctx, g *core.Graph, roots []uint32, w WeightFunc) (*MultiSSSPResult, error) {
	if err := checkRoots(g, roots, "MultiSSSP"); err != nil {
		return nil, err
	}
	if err := require1D(g, "MultiSSSP"); err != nil {
		return nil, err
	}
	k := len(roots)
	dist := make([][]uint64, k)
	inQueue := make([][]int32, k)
	var queue []uint64
	for s, root := range roots {
		ds := make([]uint64, g.NLoc)
		for v := range ds {
			ds[v] = InfDistance
		}
		dist[s] = ds
		inQueue[s] = make([]int32, g.NLoc)
		if lid := g.LocalID(root); lid != core.InvalidLocal && lid < g.NLoc {
			ds[lid] = 0
			queue = append(queue, pack(lid, s))
		}
	}

	eng := newFrontierEngine(ctx, g)
	// One weight pass per job: a k-source batch relaxes an edge up to
	// k × rounds times, and every one of them reads the same array.
	wts, _ := weighOutEdges(ctx, g, w)

	p := ctx.Size()
	counts := make([]uint64, p)
	cur := make([]uint64, p)
	intCounts := make([]int, p)
	var sendKey, recvKey []uint64
	var sendDist, recvDist []uint64
	var recvKeyCounts, recvDistCounts []int

	rounds := 0
	tr := ctx.Comm.Tracer()
	for {
		globalActive, err := comm.Allreduce(ctx.Comm, uint64(len(queue)), comm.OpSum)
		if err != nil {
			return nil, err
		}
		if globalActive == 0 {
			break
		}
		rounds++
		eng.stats.PushSteps++
		mark := tr.Now()
		frontier := len(queue)
		for s := range inQueue {
			iq := inQueue[s]
			for i := range iq {
				iq[i] = 0
			}
		}

		nt := ctx.Pool.Threads()
		nextPer := make([][]uint64, nt)
		msgKeyPer := make([][]uint64, nt)
		msgDistPer := make([][]uint64, nt)
		ctx.Pool.For(len(queue), func(lo, hi, tid int) {
			var next []uint64
			var keys []uint64
			var dists []uint64
			for i := lo; i < hi; i++ {
				v, s := unpack(queue[i])
				ds := dist[s]
				dv := atomic.LoadUint64(&ds[v])
				ws := wts[g.OutIdx[v]:g.OutIdx[v+1]]
				for i, u := range g.OutNeighbors(v) {
					nd := dv + ws[i]
					if nd < dv {
						continue // overflow past any real path length
					}
					if u < g.NLoc {
						if atomicMinU64(&ds[u], nd) &&
							atomic.CompareAndSwapInt32(&inQueue[s][u], 0, 1) {
							next = append(next, pack(u, s))
						}
					} else {
						keys = append(keys, pack(g.GlobalID(u), s))
						dists = append(dists, nd)
					}
				}
			}
			nextPer[tid] = next
			msgKeyPer[tid] = keys
			msgDistPer[tid] = dists
		})
		var next []uint64
		var msgKeys []uint64
		var msgDists []uint64
		for t := 0; t < nt; t++ {
			next = append(next, nextPer[t]...)
			msgKeys = append(msgKeys, msgKeyPer[t]...)
			msgDists = append(msgDists, msgDistPer[t]...)
		}

		eng.noteSparse(len(msgKeys), 16) // (gid, source) key + distance
		for i := range counts {
			counts[i] = 0
		}
		for _, key := range msgKeys {
			gid, _ := unpack(key)
			counts[ownerOfGid(g, gid)]++
		}
		var total uint64
		for d, c := range counts {
			cur[d] = total
			intCounts[d] = int(c)
			total += c
		}
		if uint64(cap(sendKey)) < total {
			sendKey = make([]uint64, total)
			sendDist = make([]uint64, total)
		}
		sendKey, sendDist = sendKey[:total], sendDist[:total]
		for i, key := range msgKeys {
			gid, _ := unpack(key)
			d := ownerOfGid(g, gid)
			sendKey[cur[d]] = key
			sendDist[cur[d]] = msgDists[i]
			cur[d]++
		}
		recvKey, recvKeyCounts, err = comm.AlltoallvInto(ctx.Comm, sendKey, intCounts, recvKey, recvKeyCounts)
		if err != nil {
			return nil, err
		}
		recvDist, recvDistCounts, err = comm.AlltoallvInto(ctx.Comm, sendDist, intCounts, recvDist, recvDistCounts)
		if err != nil {
			return nil, err
		}
		if len(recvKey) != len(recvDist) {
			return nil, fmt.Errorf("analytics: MultiSSSP message streams misaligned")
		}
		for i, key := range recvKey {
			gid, s := unpack(key)
			lid := g.MustLocalID(gid)
			if lid >= g.NLoc {
				return nil, fmt.Errorf("analytics: MultiSSSP update for unowned vertex %d", gid)
			}
			ds := dist[s]
			if recvDist[i] < ds[lid] {
				ds[lid] = recvDist[i]
				if inQueue[s][lid] == 0 {
					inQueue[s][lid] = 1
					next = append(next, pack(lid, s))
				}
			}
		}
		queue = next
		tr.Span(SpanSSSPRound, mark, int64(frontier))
	}

	localReached := make([]uint64, k)
	for s := range localReached {
		ds := dist[s]
		localReached[s] = ctx.Pool.SumRangeU64(int(g.NLoc), func(i int) uint64 {
			if ds[i] != InfDistance {
				return 1
			}
			return 0
		})
	}
	reached, err := comm.AllreduceSlice(ctx.Comm, localReached, comm.OpSum)
	if err != nil {
		return nil, err
	}
	return &MultiSSSPResult{Dist: dist, Rounds: rounds, Reached: reached, Traversal: eng.stats}, nil
}
