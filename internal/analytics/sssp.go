package analytics

import (
	"fmt"
	"sync/atomic"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Single-source shortest paths: the second Graph500 kernel the paper's
// introduction frames its work against (BFS being the first). Two
// implementations share this result type: SSSPRounds is a queue-driven
// Bellman-Ford in the paper's BFS-like class (rounds relax the out-edges of
// vertices whose distance improved and stop when nothing improves anywhere),
// and SSSPDelta — the default behind SSSP — is Δ-stepping over the
// distributed bucket structure (see deltasssp.go), which settles vertices in
// near-distance order and therefore re-ships far fewer ghost improvements.
//
// The on-disk format carries no weights, so weights are synthesized
// deterministically per (src, dst) pair (HashWeights) — every rank computes
// the same weight for an edge without storing or exchanging it, the same
// trick the generators use for edges themselves.

// InfDistance marks unreachable vertices.
const InfDistance = ^uint64(0)

// WeightFunc returns the weight of directed edge (srcGid, dstGid); it must
// be positive and identical on every rank. Parallel edges share a weight.
type WeightFunc func(srcGid, dstGid uint32) uint64

// UnitWeights makes SSSP equivalent to BFS depth counting.
func UnitWeights(srcGid, dstGid uint32) uint64 { return 1 }

// HashWeights returns deterministic pseudo-random integer weights in
// [1, maxW]. It is kept out of line on purpose: when the compiler inlines
// it into a caller, the returned closure becomes a copy in which nothing is
// inlined, and every edge's weight then pays a real call to rng.Mix64.
//
//go:noinline
func HashWeights(seed uint64, maxW uint64) WeightFunc {
	if maxW == 0 {
		maxW = 1
	}
	return func(srcGid, dstGid uint32) uint64 {
		h := rng.Mix64(seed ^ uint64(srcGid)<<32 ^ uint64(dstGid))
		return 1 + h%maxW
	}
}

// SSSPResult carries per-owned-vertex distances and run metadata.
type SSSPResult struct {
	// Dist[v] is the shortest-path distance from the root to owned local
	// vertex v, or InfDistance if unreachable.
	Dist []uint64
	// Rounds is the number of relaxation rounds executed (Bellman-Ford
	// rounds, or Δ-stepping relaxation sub-rounds).
	Rounds int
	// Reached is the global number of reachable vertices (root included).
	Reached uint64
	// Delta is the bucket width the run used (0 for SSSPRounds).
	Delta uint64
	// Traversal records the engine's per-round representation choices and
	// wire volume (SSSP rounds are always push-direction; only the claim
	// representation adapts).
	Traversal obs.TraversalStats
	// Buckets records the bucket structure's work (zero for SSSPRounds).
	Buckets obs.BucketStats
}

// SSSP computes shortest paths from the global vertex root along directed
// edges under w. It is Δ-stepping with an automatically chosen Δ (the mean
// edge weight); see SSSPDelta for a tunable Δ and SSSPRounds for the
// round-based Bellman-Ford it replaced. All three produce bit-identical
// distances: distances are the fixed point of monotone min relaxations,
// independent of relaxation order.
func SSSP(ctx *core.Ctx, g *core.Graph, root uint32, w WeightFunc) (*SSSPResult, error) {
	return SSSPDelta(ctx, g, root, w, 0)
}

// SSSPRounds computes shortest paths from the global vertex root along
// directed edges under w with the round-based Bellman-Ford: every vertex
// whose distance improved is relaxed again next round, however far from
// settled it is. Kept alongside SSSPDelta as the baseline the harness's
// "delta" experiment measures against.
//
// Distances live over owned and ghost slots: a ghost slot caches the best
// distance this rank has ever shipped for it, so each round forwards each
// ghost's improvement at most once (claims are deduplicated by an atomic
// min on the ghost slot — strictly fewer messages than resending every
// relaxation, identical fixed point). Claims travel either as the sparse
// aligned (gid, dist) streams or, when the round's global claim count
// makes it cheaper, as the engine's fused dense exchange: one packed claim
// bit per halo slot followed by the claimed distances in slot order.
func SSSPRounds(ctx *core.Ctx, g *core.Graph, root uint32, w WeightFunc) (*SSSPResult, error) {
	if err := require1D(g, "SSSP"); err != nil {
		return nil, err
	}
	if root >= g.NGlobal {
		return nil, fmt.Errorf("analytics: SSSP root %d outside %d vertices", root, g.NGlobal)
	}
	dist := make([]uint64, g.NTotal())
	for v := range dist {
		dist[v] = InfDistance
	}
	inQueue := make([]int32, g.NTotal()) // CAS flag: owned = queued, ghost = claimed
	var queue []uint32
	if lid := g.LocalID(root); lid != core.InvalidLocal && lid < g.NLoc {
		dist[lid] = 0
		queue = append(queue, lid)
	}
	eng := newFrontierEngine(ctx, g)

	// Round-retained exchange scratch: routing tables and the two aligned
	// (gid, dist) message streams are reused every round, so steady-state
	// rounds allocate only for frontier growth.
	p := ctx.Size()
	counts := make([]uint64, p)
	cur := make([]uint64, p)
	intCounts := make([]int, p)
	var sendGid, recvGid []uint32
	var sendDist, recvDist []uint64
	var recvGidCounts, recvDistCounts []int

	rounds := 0
	tr := ctx.Comm.Tracer()
	for {
		if rounds == 0 {
			red, err := comm.AllreduceSlice(ctx.Comm, []uint64{uint64(len(queue)), uint64(g.NGst)}, comm.OpSum)
			if err != nil {
				return nil, err
			}
			eng.gGhosts = red[1]
			if red[0] == 0 {
				break
			}
		} else {
			globalActive, err := comm.Allreduce(ctx.Comm, uint64(len(queue)), comm.OpSum)
			if err != nil {
				return nil, err
			}
			if globalActive == 0 {
				break
			}
		}
		rounds++
		mark := tr.Now()
		frontier := len(queue)
		for i := range inQueue {
			inQueue[i] = 0
		}

		// Relax the queue's out-edges; local improvements claim a slot in
		// the next queue, ghost improvements claim the ghost slot (atomic
		// min dedups repeat claims across threads and rounds).
		nt := ctx.Pool.Threads()
		nextPer := make([][]uint32, nt)
		claimPer := make([][]uint32, nt)
		ctx.Pool.For(len(queue), func(lo, hi, tid int) {
			var next []uint32
			var claims []uint32
			for i := lo; i < hi; i++ {
				v := queue[i]
				dv := atomic.LoadUint64(&dist[v])
				vGid := g.GlobalID(v)
				for _, u := range g.OutNeighbors(v) {
					uGid := g.GlobalID(u)
					nd := dv + w(vGid, uGid)
					if nd < dv {
						// Overflow: weights are positive, so this only
						// happens beyond any real path length.
						continue
					}
					if u < g.NLoc {
						if atomicMinU64(&dist[u], nd) &&
							atomic.CompareAndSwapInt32(&inQueue[u], 0, 1) {
							next = append(next, u)
						}
					} else if atomicMinU64(&dist[u], nd) &&
						atomic.CompareAndSwapInt32(&inQueue[u], 0, 1) {
						claims = append(claims, u)
					}
				}
			}
			nextPer[tid] = next
			claimPer[tid] = claims
		})
		var next []uint32
		var claims []uint32
		for t := 0; t < nt; t++ {
			next = append(next, nextPer[t]...)
			claims = append(claims, claimPer[t]...)
		}

		dense, err := eng.denseClaimRound(ctx, len(claims), 8)
		if err != nil {
			return nil, err
		}
		if dense {
			if err := eng.ensureHalo(ctx); err != nil {
				return nil, err
			}
			err = eng.reverseValueExchange(ctx, claims,
				func(u uint32) uint64 { return dist[u] },
				func(v uint32, x uint64) error {
					if x < dist[v] {
						dist[v] = x
						if inQueue[v] == 0 {
							inQueue[v] = 1
							next = append(next, v)
						}
					}
					return nil
				})
			if err != nil {
				return nil, err
			}
			queue = next
			tr.Span(SpanSSSPRound, mark, int64(frontier))
			continue
		}

		// Sparse representation: route claims to owners as two aligned
		// (gid, dist) streams.
		eng.noteSparse(len(claims), 12)
		for i := range counts {
			counts[i] = 0
		}
		for _, u := range claims {
			counts[g.GhostOwner[u-g.NLoc]]++
		}
		var total uint64
		for d, c := range counts {
			cur[d] = total
			intCounts[d] = int(c)
			total += c
		}
		if uint64(cap(sendGid)) < total {
			sendGid = make([]uint32, total)
			sendDist = make([]uint64, total)
		}
		sendGid, sendDist = sendGid[:total], sendDist[:total]
		for _, u := range claims {
			d := g.GhostOwner[u-g.NLoc]
			sendGid[cur[d]] = g.GlobalID(u)
			sendDist[cur[d]] = dist[u]
			cur[d]++
		}
		recvGid, recvGidCounts, err = comm.AlltoallvInto(ctx.Comm, sendGid, intCounts, recvGid, recvGidCounts)
		if err != nil {
			return nil, err
		}
		recvDist, recvDistCounts, err = comm.AlltoallvInto(ctx.Comm, sendDist, intCounts, recvDist, recvDistCounts)
		if err != nil {
			return nil, err
		}
		if len(recvGid) != len(recvDist) {
			return nil, fmt.Errorf("analytics: SSSP message streams misaligned")
		}
		for i, gid := range recvGid {
			lid := g.MustLocalID(gid)
			if lid >= g.NLoc {
				return nil, fmt.Errorf("analytics: SSSP update for unowned vertex %d", gid)
			}
			if recvDist[i] < dist[lid] {
				dist[lid] = recvDist[i]
				if inQueue[lid] == 0 {
					inQueue[lid] = 1
					next = append(next, lid)
				}
			}
		}
		queue = next
		tr.Span(SpanSSSPRound, mark, int64(frontier))
	}

	localReached := ctx.Pool.SumRangeU64(int(g.NLoc), func(i int) uint64 {
		if dist[i] != InfDistance {
			return 1
		}
		return 0
	})
	reached, err := comm.Allreduce(ctx.Comm, localReached, comm.OpSum)
	if err != nil {
		return nil, err
	}
	return &SSSPResult{Dist: dist[:g.NLoc], Rounds: rounds, Reached: reached, Traversal: eng.stats}, nil
}

// atomicMinU64 lowers *addr to v if v is smaller; reports whether it did.
func atomicMinU64(addr *uint64, v uint64) bool {
	for {
		old := atomic.LoadUint64(addr)
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, v) {
			return true
		}
	}
}
