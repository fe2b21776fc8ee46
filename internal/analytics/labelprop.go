package analytics

import (
	"repro/internal/core"
	"repro/internal/rng"
)

// LabelPropOptions configures Label Propagation community detection
// (Raghavan et al., the paper's sixth analytic).
type LabelPropOptions struct {
	// Iterations is the fixed round count (the paper reports 10- and
	// 30-iteration runs).
	Iterations int
	// RandomTies breaks max-count ties pseudo-randomly (seeded, still
	// deterministic) as the paper does, instead of toward the smallest
	// label. Random ties prolong the dynamics and allow community merging;
	// smallest-label ties make runs comparable to the sequential oracle.
	RandomTies bool
	// TieSeed seeds the random tie-breaking.
	TieSeed uint64
}

// LabelPropResult carries the final labels of owned vertices.
type LabelPropResult struct {
	// Labels[v] is the community label of owned local vertex v (labels are
	// drawn from global vertex ids).
	Labels []uint32
	// Iterations is the number of rounds executed.
	Iterations int
}

// LabelProp runs synchronous distributed Label Propagation following the
// paper's Algorithm 1: labels initialize to global vertex ids; every round,
// each vertex adopts the most frequent label among its in- and out-
// neighbors (directivity ignored, ties to the smallest label — the paper
// breaks ties randomly, we pin them for determinism); ghost labels refresh
// through the retained-queue halo.
func LabelProp(ctx *core.Ctx, g *core.Graph, opts LabelPropOptions) (*LabelPropResult, error) {
	if err := require1D(g, "LabelProp"); err != nil {
		return nil, err
	}
	halo, _, err := haloFor(ctx, g, DirsBoth)
	if err != nil {
		return nil, err
	}

	// Labels over owned + ghost vertices; ghosts are initialized locally
	// (their initial label is their own global id, which the unmap array
	// already knows — no startup exchange needed).
	labels := make([]uint32, g.NTotal())
	next := make([]uint32, g.NLoc)
	ctx.Pool.For(int(g.NTotal()), func(lo, hi, tid int) {
		for v := lo; v < hi; v++ {
			labels[v] = g.GlobalID(uint32(v))
		}
	})
	tr := ctx.Comm.Tracer()
	for it := 0; it < opts.Iterations; it++ {
		mark := tr.Now()
		// The paper's main loop (Algorithm 1 lines 30-40): histogram each
		// vertex's neighborhood in a per-thread hash map (lmap) and take
		// the argmax.
		it := it
		ctx.Pool.Run(func(tid int) {
			lo, hi := threadRangeLoc(g, tid, ctx.Pool.Threads())
			hist := make(map[uint32]uint64, 16)
			for v := lo; v < hi; v++ {
				clear(hist)
				for _, u := range g.OutNeighbors(v) {
					hist[labels[u]]++
				}
				for _, u := range g.InNeighbors(v) {
					hist[labels[u]]++
				}
				if opts.RandomTies {
					next[v] = argmaxLabelRandom(hist, labels[v], opts.TieSeed^uint64(it)<<32, g.GlobalID(v))
				} else {
					next[v] = argmaxLabel(hist, labels[v])
				}
			}
		})
		copy(labels[:g.NLoc], next)
		if err := Exchange(ctx, halo, labels); err != nil {
			return nil, err
		}
		tr.Span(SpanLabelPropIter, mark, int64(it))
	}
	return &LabelPropResult{Labels: labels[:g.NLoc:g.NLoc], Iterations: opts.Iterations}, nil
}

// threadRangeLoc splits owned vertices across pool threads.
func threadRangeLoc(g *core.Graph, tid, nt int) (uint32, uint32) {
	n := int(g.NLoc)
	q, r := n/nt, n%nt
	lo := tid*q + min(tid, r)
	hi := lo + q
	if tid < r {
		hi++
	}
	return uint32(lo), uint32(hi)
}

// argmaxLabelRandom picks the most frequent label, breaking count ties by a
// seeded hash of (seed, vertex, label) — the paper's "ties are broken
// randomly", made reproducible.
func argmaxLabelRandom(hist map[uint32]uint64, current uint32, seed uint64, gid uint32) uint32 {
	best := current
	var bestCount uint64
	var bestScore uint64
	score := func(l uint32) uint64 {
		return rng.Mix64(seed ^ uint64(gid)<<32 ^ uint64(l))
	}
	for l, c := range hist {
		s := score(l)
		if c > bestCount || (c == bestCount && bestCount > 0 && s < bestScore) {
			best, bestCount, bestScore = l, c, s
		} else if c == bestCount && bestCount > 0 && s == bestScore && l < best {
			best = l // hash collision: fall back to smallest for determinism
		}
	}
	if bestCount == 0 {
		return current
	}
	return best
}

// argmaxLabel picks the most frequent label, ties toward the smallest;
// vertices with empty neighborhoods keep their current label. This is the
// paper's getMaxLabelCount with deterministic tie-breaking.
func argmaxLabel(hist map[uint32]uint64, current uint32) uint32 {
	best := current
	var bestCount uint64
	for l, c := range hist {
		if c > bestCount || (c == bestCount && l < best) {
			best, bestCount = l, c
		}
	}
	if bestCount == 0 {
		return current
	}
	return best
}
