package analytics

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Single-source shortest paths: the second Graph500 kernel the paper's
// introduction frames its work against (BFS being the first). The one
// implementation is SSSPDelta — Δ-stepping over the distributed bucket
// structure (see deltasssp.go), which settles vertices in near-distance
// order; a Δ past every path length degenerates it to Bellman-Ford rounds
// over one fat bucket, the baseline the harness's delta experiment sweeps
// against.
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
	// Rounds is the number of relaxation rounds executed: Δ-stepping's light
	// sub-rounds plus one heavy phase per bucket.
	Rounds int
	// Reached is the global number of reachable vertices (root included).
	Reached uint64
	// Delta is the bucket width the run used.
	Delta uint64
	// Traversal records the engine's per-round representation choices and
	// wire volume (SSSP rounds are always push-direction; only the claim
	// representation adapts).
	Traversal obs.TraversalStats
	// Buckets records the bucket structure's work.
	Buckets obs.BucketStats
}

// SSSP computes shortest paths from the global vertex root along directed
// edges under w. It is Δ-stepping with an automatically chosen Δ (the mean
// edge weight); see SSSPDelta for a tunable Δ. Every Δ produces bit-identical
// distances: they are the fixed point of monotone min relaxations,
// independent of relaxation order.
func SSSP(ctx *core.Ctx, g *core.Graph, root uint32, w WeightFunc) (*SSSPResult, error) {
	return SSSPDelta(ctx, g, root, w, 0)
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
