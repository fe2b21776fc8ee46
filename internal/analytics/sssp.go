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

// edgeWeights is a job's edge weights as data: the WeightFunc of an exported
// entry point, or (fn nil) a Job's hash parameters, which weighRow evaluates
// in line — HashWeights(seed, max), edge for edge, without a call per edge.
type edgeWeights struct {
	fn        WeightFunc
	seed, max uint64
}

// weighRow writes into dst the weight of the edge between v and each of
// nbrs — v → u when out, u → v otherwise — and returns their sum. It is the
// one place the two weight sources meet; hashed weights take a mask when max
// is a power of two and a divide otherwise.
func weighRow[T uint64 | float64](w edgeWeights, g *core.Graph, v uint32, nbrs []uint32, out bool, dst []T) (sum uint64) {
	dst = dst[:len(nbrs)]
	vg := g.GlobalID(v)
	if w.fn != nil {
		for i, u := range nbrs {
			a, b := g.GlobalID(u), vg
			if out {
				a, b = b, a
			}
			x := w.fn(a, b)
			dst[i], sum = T(x), sum+x
		}
		return sum
	}
	// HashWeights hashes seed ^ src<<32 ^ dst: v's half of the key is fixed.
	key, shift := w.seed^uint64(vg), 32
	if out {
		key, shift = w.seed^uint64(vg)<<32, 0
	}
	m := max(w.max, 1)
	if m&(m-1) == 0 {
		for i, u := range nbrs {
			x := 1 + rng.Mix64(key^uint64(g.GlobalID(u))<<shift)&(m-1)
			dst[i], sum = T(x), sum+x
		}
		return sum
	}
	for i, u := range nbrs {
		x := 1 + rng.Mix64(key^uint64(g.GlobalID(u))<<shift)%m
		dst[i], sum = T(x), sum+x
	}
	return sum
}

// SSSPResult carries per-owned-vertex distances and run metadata.
type SSSPResult struct {
	// Dist[v] is the shortest-path distance from the root to owned local
	// vertex v, or InfDistance if unreachable.
	Dist []uint64
	// Rounds is the number of relaxation rounds executed: Δ-stepping's light
	// sub-rounds in which some rank relaxed, plus one heavy phase per bucket.
	Rounds int
	// Reached is the global number of reachable vertices (root included).
	Reached uint64
	// Delta is the bucket width the run used.
	Delta uint64
	// Traversal counts the claim rounds (SparseExchanges: Rounds plus any
	// light sub-round that found its bucket empty everywhere) and the claim
	// bytes they carried; SSSP has one wire format, whatever ctx.Traverse.
	Traversal obs.TraversalStats
	// Buckets records the bucket structure's work.
	Buckets obs.BucketStats
}

// SSSP computes shortest paths from the global vertex root along directed
// edges under w. It is Δ-stepping with an automatically chosen Δ (autoDelta's
// thin buckets); see SSSPDelta for a tunable Δ. Every Δ produces bit-identical
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
