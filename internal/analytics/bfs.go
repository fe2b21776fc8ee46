package analytics

import (
	"fmt"
	"sync/atomic"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/obs"
)

// Dir selects traversal direction for BFS-like analytics.
type Dir int

// Traversal directions.
const (
	// Forward follows out-edges.
	Forward Dir = iota
	// Backward follows in-edges.
	Backward
	// Und follows both, treating the graph as undirected.
	Und
)

// Status sentinels for BFS-like analytics (the paper's Status array uses
// -2 unvisited / -1 discovered / >=0 level).
const (
	statusUnvisited int32 = -2
	statusPending   int32 = -1
)

// BFSResult carries per-owned-vertex levels and traversal metadata.
type BFSResult struct {
	// Levels[v] is the BFS depth of owned local vertex v, or -1 if
	// unreachable from the root.
	Levels []int32
	// Reached is the global number of vertices visited (including the
	// root).
	Reached uint64
	// Depth is the eccentricity observed: the last level populated.
	Depth int
	// Traversal records this rank's adaptive-engine step choices and wire
	// volume (identical direction/representation sequence on every rank;
	// byte counters are this rank's share).
	Traversal obs.TraversalStats
}

// BFS runs the paper's Algorithm 2 — level-synchronous distributed BFS
// from the global vertex root — under the adaptive frontier engine of
// frontier.go: each level runs top-down push (local discoveries join the
// next queue, ghost claims travel to their owners, sparse or dense) or
// bottom-up pull (ghost frontier bits refresh densely, discoveries are
// purely local), per ctx.Traverse and the globally reduced frontier
// statistics. Levels are identical in every mode; the loop ends when the
// global frontier empties.
func BFS(ctx *core.Ctx, g *core.Graph, root uint32, dir Dir) (*BFSResult, error) {
	return newBFSRunner(ctx, g, dir).run(root)
}

// bfsRunner is the part of a BFS that does not depend on the root: the
// traversal engine with everything it retains — on a 1D shard the frontier
// engine (halo, frontier bitmap, exchange staging) and the whole graph's
// pull edge mass, on a 2D shard the grid engine (row-span claim bitmap,
// dense-fold width, scan and exchange staging) — and one status array and
// queue pair that run resets rather than reallocates. BFS, Harmonic and
// WCC's traversal phase use it for one root; a multi-source job (MultiBFS,
// HarmonicTopK, a coalesced serve batch) runs its roots one after another
// on one runner, so a batch of k costs at most k solo traversals and
// allocates little more than one.
type bfsRunner struct {
	ctx *core.Ctx
	g   *core.Graph
	dir Dir

	eng         *frontierEngine // 1D shards
	grid        *grid2DEngine   // 2D shards, built by the first run2D
	pullMass    uint64          // totalPullDeg: the unexplored pull edge mass before any root
	status      []int32         // over owned and (1D) ghost vertices
	queue, next []uint32        // current and next frontier, swapped per level
}

func newBFSRunner(ctx *core.Ctx, g *core.Graph, dir Dir) *bfsRunner {
	r := &bfsRunner{ctx: ctx, g: g, dir: dir}
	if !g.Is2D() {
		r.eng = newFrontierEngine(ctx, g)
		r.pullMass = totalPullDeg(g, dir)
		r.status = make([]int32, g.NTotal())
	}
	return r
}

// run is one traversal from root. Collective; every rank passes the same
// root. The result's Traversal counts this root's steps only.
func (r *bfsRunner) run(root uint32) (*BFSResult, error) {
	ctx, g, dir, eng := r.ctx, r.g, r.dir, r.eng
	if root >= g.NGlobal {
		return nil, fmt.Errorf("analytics: BFS root %d outside %d vertices", root, g.NGlobal)
	}
	if g.Is2D() {
		return r.run2D(root)
	}
	eng.stats = obs.TraversalStats{}
	status := r.status
	for i := range status {
		status[i] = statusUnvisited
	}
	muLocal := r.pullMass
	queue, next := r.queue[:0], r.next
	if lid := g.LocalID(root); lid != core.InvalidLocal && lid < g.NLoc {
		status[lid] = statusPending
		queue = append(queue, lid)
		muLocal -= pullDeg(g, lid, dir)
	}
	reached := uint64(0)
	depth := -1

	tr := ctx.Comm.Tracer()
	glob, err := eng.reduceStats(ctx, queue, muLocal, dir, true)
	if err != nil {
		return nil, err
	}
	pl := eng.plan(stepPlan{}, glob[0], glob[1], glob[2])
	first := true
	var prevExec stepPlan
	for level := int32(0); glob[0] != 0; level++ {
		mark := tr.Now()
		frontier := len(queue)
		if eng.planNeedsHalo(pl) {
			if err := eng.ensureHalo(ctx); err != nil {
				return nil, err
			}
		}
		if pl.pull {
			next, err = eng.pullStep(ctx, status, queue, next[:0], level, dir)
			if err != nil {
				return nil, err
			}
		} else {
			var send, arrived []uint32
			next, send = eng.expand(ctx, status, queue, next[:0], level, dir)
			if pl.dense {
				arrived, err = eng.exchangeDenseClaims(ctx, send)
			} else {
				eng.noteSparse(len(send), 4)
				arrived, err = exchangeFrontier(ctx, g, send, &eng.fsc)
			}
			if err != nil {
				return nil, err
			}
			for _, lid := range arrived {
				// Owner-side dedup: several ranks may discover the same
				// vertex in one level.
				if status[lid] == statusUnvisited {
					status[lid] = statusPending
					next = append(next, lid)
				}
			}
		}
		if frontier > 0 {
			depth = int(level)
		}
		reached += uint64(frontier)
		queue, next = next, queue
		muLocal -= ctx.Pool.SumRangeU64(len(queue), func(i int) uint64 { return pullDeg(g, queue[i], dir) })
		glob, err = eng.reduceStats(ctx, queue, muLocal, dir, false)
		if err != nil {
			return nil, err
		}
		tr.Span(stepSpanName(pl), mark, int64(frontier))
		tr.Span(SpanBFSLevel, mark, int64(frontier))
		eng.note(prevExec, pl, first)
		prevExec, first = pl, false
		pl = eng.plan(pl, glob[0], glob[1], glob[2])
	}
	r.queue, r.next = queue, next
	return r.finish(reached, depth, eng.stats)
}

// finish turns the runner's status array and this rank's reach and depth
// into the result every rank agrees on. Collective.
func (r *bfsRunner) finish(reached uint64, depth int, stats obs.TraversalStats) (*BFSResult, error) {
	levels := make([]int32, r.g.NLoc)
	for v := range levels {
		if s := r.status[v]; s >= 0 {
			levels[v] = s
		} else {
			levels[v] = -1
		}
	}
	total, err := comm.Allreduce(r.ctx.Comm, reached, comm.OpSum)
	if err != nil {
		return nil, err
	}
	maxDepth, err := comm.Allreduce(r.ctx.Comm, int64(depth), comm.OpMax)
	if err != nil {
		return nil, err
	}
	return &BFSResult{Levels: levels, Reached: total, Depth: int(maxDepth), Traversal: stats}, nil
}

// expand finalizes the current queue at the given level and expands each
// member's selected adjacency, claiming unvisited neighbors with a
// compare-and-swap: local claims are appended to next, ghost claims form
// the returned send list, which aliases the engine's staging and is valid
// until the next expand. Thread-parallel with per-thread staging (the
// paper's Algorithm 3 applied to the BFS queues).
func (e *frontierEngine) expand(ctx *core.Ctx, status []int32, queue, next []uint32, level int32, dir Dir) (nextOut, send []uint32) {
	g := e.g
	nextPer, sendPer := e.staging(ctx.Pool.Threads())
	ctx.Pool.For(len(queue), func(lo, hi, tid int) {
		nxt, snd := nextPer[tid], sendPer[tid]
		visit := func(u uint32) {
			if atomic.CompareAndSwapInt32(&status[u], statusUnvisited, statusPending) {
				if u < g.NLoc {
					nxt = append(nxt, u)
				} else {
					snd = append(snd, u)
				}
			}
		}
		for i := lo; i < hi; i++ {
			v := queue[i]
			atomic.StoreInt32(&status[v], level)
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
		nextPer[tid], sendPer[tid] = nxt, snd
	})
	send = e.sendStage[:0]
	for t := range nextPer {
		next = append(next, nextPer[t]...)
		send = append(send, sendPer[t]...)
		nextPer[t], sendPer[t] = nextPer[t][:0], sendPer[t][:0]
	}
	e.sendStage = send
	return next, send
}

// frontierScratch retains exchangeFrontier's staging buffers across the
// rounds of one BFS-like loop, so steady-state frontier exchanges reuse
// rather than reallocate them. Zero value is ready to use; the slice
// returned by exchangeFrontier aliases the scratch and is valid until the
// next call with the same scratch.
type frontierScratch struct {
	sendCounts []int
	cur        []int
	vsend      []uint32
	recv       []uint32
	recvCounts []int
	lids       []uint32
}

// ownerSegments lays a send buffer out by owning rank for the p ranks of the
// group: counts[d] is the length of rank d's segment — lead words, then width
// per ghost in ghosts that d owns — cur[d] is where its first ghost goes, and
// total the length of the whole buffer. counts and cur are reused when they
// are large enough.
func ownerSegments(g *core.Graph, p int, ghosts []uint32, lead, width int, counts, cur []int) (_, _ []int, total int) {
	if cap(counts) < p {
		counts, cur = make([]int, p), make([]int, p)
	}
	counts, cur = counts[:p], cur[:p]
	for d := range counts {
		counts[d] = lead
	}
	for _, u := range ghosts {
		counts[g.GhostOwner[u-g.NLoc]] += width
	}
	for d, c := range counts {
		cur[d] = total + lead
		total += c
	}
	return counts, cur, total
}

// exchangeFrontier routes ghost local ids to their owning ranks (as global
// ids, the only currency ranks share) and returns the owned local ids that
// arrived here, multiplicity preserved. Callers deduplicate (or count)
// against their own state arrays.
func exchangeFrontier(ctx *core.Ctx, g *core.Graph, ghostLids []uint32, sc *frontierScratch) ([]uint32, error) {
	sendCounts, cur, total := ownerSegments(g, ctx.Size(), ghostLids, 0, 1, sc.sendCounts, sc.cur)
	sc.sendCounts, sc.cur = sendCounts, cur
	if cap(sc.vsend) < total {
		sc.vsend = make([]uint32, total)
	}
	vsend := sc.vsend[:total]
	for _, u := range ghostLids {
		d := g.GhostOwner[u-g.NLoc]
		vsend[cur[d]] = g.GlobalID(u)
		cur[d]++
	}
	recv, recvCounts, err := comm.AlltoallvInto(ctx.Comm, vsend, sendCounts, sc.recv, sc.recvCounts)
	if err != nil {
		return nil, err
	}
	sc.recv, sc.recvCounts = recv, recvCounts
	if cap(sc.lids) < len(recv) {
		sc.lids = make([]uint32, len(recv))
	}
	lids := sc.lids[:len(recv)]
	for i, gid := range recv {
		lid := g.LocalID(gid)
		if lid == core.InvalidLocal || lid >= g.NLoc {
			return nil, fmt.Errorf("analytics: frontier vertex %d arrived at non-owner", gid)
		}
		lids[i] = lid
	}
	return lids, nil
}
