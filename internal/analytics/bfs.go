package analytics

import (
	"fmt"
	"sync/atomic"

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
	r, err := bfsRunnerFor(ctx, g)
	if err != nil {
		return nil, err
	}
	return r.run(ctx, root, dir)
}

// bfsRunner is the part of a BFS that depends on neither the root nor the
// direction: the traversal engine with everything it retains — on a 1D
// shard the frontier engine (halo geometry, claim round, frontier bitmap,
// exchange staging), on a 2D shard the grid engine (row-span claim bitmap,
// dense-fold width, scan and exchange staging) — and one status array and
// queue pair that run resets rather than reallocates. A 1D runner lives as
// long as its DirsBoth halo plan (bfsRunnerFor), so every BFS-family call of
// a generation — BFS, bfs jobs and their coalesced batches, Harmonic, WCC's
// traversal phase, LargestSCC's sweeps — runs on the same one and a warm
// traversal allocates only its answer; a 2D runner lives for one call. A
// multi-source job runs its roots one after another on one runner, so a
// batch of k costs at most k solo traversals.
type bfsRunner struct {
	g *core.Graph

	eng         *frontierEngine // 1D shards
	grid        *grid2DEngine   // 2D shards, built by the first run2D
	status      []int32         // over owned and (1D) ghost vertices
	queue, next []uint32        // current and next frontier, swapped per level
	haloBuilt   bool            // the halo under eng was built for this runner's first run
}

// bfsRunnerFor returns g's BFS runner: on a 1D shard the one retained with
// the DirsBoth halo plan, laid over the halo when first asked for; on a 2D
// shard, which has no halo, a fresh one. One halo lookup per call,
// collective when it builds. A nil ctx.Plans builds the halo, and with it
// the runner, per call.
func bfsRunnerFor(ctx *core.Ctx, g *core.Graph) (*bfsRunner, error) {
	if g.Is2D() {
		return &bfsRunner{g: g}, nil
	}
	h, built, err := haloFor(ctx, g, DirsBoth)
	if err != nil {
		return nil, err
	}
	if h.bfs == nil {
		gm, err := h.geometry()
		if err != nil {
			return nil, err
		}
		// The claim round's staging grows to the widest sparse level: a
		// claim's worth per ghost up front costs more than sparse levels ship.
		rd := &claimRound{kernel: "BFS", g: g, h: h, slot: gm.ghostSlot, offs: make([]int, ctx.Size())}
		eng := &frontierEngine{g: g, haloGeom: gm, rd: rd, nGlobal: uint64(g.NGlobal)}
		h.bfs = &bfsRunner{g: g, eng: eng, status: make([]int32, g.NTotal()), haloBuilt: built}
	}
	return h.bfs, nil
}

// run is one traversal from root along dir, under ctx's traversal policy.
// Collective; every rank passes the same root and direction. The result's
// Traversal counts this root's steps only.
func (r *bfsRunner) run(ctx *core.Ctx, root uint32, dir Dir) (*BFSResult, error) {
	g, eng := r.g, r.eng
	if root >= g.NGlobal {
		return nil, fmt.Errorf("analytics: BFS root %d outside %d vertices", root, g.NGlobal)
	}
	if g.Is2D() {
		return r.run2D(ctx, root, dir)
	}
	eng.pol, eng.stats = ctx.Traverse, obs.TraversalStats{}
	if r.haloBuilt {
		eng.stats.HaloBuilds, r.haloBuilt = 1, false
	}
	status := r.status
	for i := range status {
		status[i] = statusUnvisited
	}
	queue, next := r.queue[:0], r.next
	if lid := g.LocalID(root); lid != core.InvalidLocal && lid < g.NLoc {
		status[lid] = statusPending
		queue = append(queue, lid)
	}
	mf, mq := eng.queueMass(ctx, queue, dir)
	muLocal := totalPullDeg(g, dir) - mq
	reached := uint64(0)
	level := int32(0)

	tr := ctx.Comm.Tracer()
	glob, err := eng.reduceStats(ctx, len(queue), mf, muLocal, true)
	if err != nil {
		return nil, err
	}
	pl := eng.plan(stepPlan{}, glob[0], glob[1], glob[2])
	first := true
	var prevExec stepPlan
	for ; glob[0] != 0; level++ {
		mark := tr.Now()
		frontier := len(queue)
		reached += glob[0]
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
				arrived, err = eng.exchangeSparseClaims(ctx, send)
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
		queue, next = next, queue
		mf, mq = eng.queueMass(ctx, queue, dir)
		muLocal -= mq
		glob, err = eng.reduceStats(ctx, len(queue), mf, muLocal, false)
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
	return r.finish(reached, level, eng.stats), nil
}

// finish turns the runner's status array into the result. reached is the
// sum of the levels' global frontier sizes and levels the number of levels
// run, both identical on every rank, so finishing needs no collective: the
// last level is the depth.
func (r *bfsRunner) finish(reached uint64, levels int32, stats obs.TraversalStats) *BFSResult {
	lv := make([]int32, r.g.NLoc)
	for v := range lv {
		lv[v] = max(r.status[v], -1)
	}
	return &BFSResult{Levels: lv, Reached: reached, Depth: int(levels) - 1, Traversal: stats}
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
			// Most neighbors are already claimed: a plain load skips the
			// locked instruction for them.
			if atomic.LoadInt32(&status[u]) == statusUnvisited &&
				atomic.CompareAndSwapInt32(&status[u], statusUnvisited, statusPending) {
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
