package analytics

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/obs"
)

// Δ-stepping SSSP (Meyer & Sanders) over the distributed bucket structure.
// Vertices live in buckets keyed by dist/Δ; the group settles buckets in
// ascending global order. Within a bucket, light edges (weight <= Δ — they
// can re-file a target into the same bucket) are relaxed to a fixed point
// in sub-rounds; heavy edges (weight > Δ — their targets always land in a
// later bucket) are relaxed exactly once, after the bucket settles. With
// unit weights and Δ=1 every bucket settles in one light sub-round and the
// schedule degenerates to level-synchronous BFS; with Δ=∞ it degenerates to
// Bellman-Ford. The sweet spot trades bucket-loop latency (more rounds)
// against wasted relaxations of not-yet-settled distances — which, in
// distributed memory, are exactly the re-shipped ghost improvements — and,
// with a core per rank, against idle time: a fat bucket is a chain one rank
// relaxes while the other waits, a thin one a band both relax at once.

// splitCSR is the light/heavy edge split of the owned out-CSR with weights
// materialized: each relaxation reads a contiguous (target, weight) pair
// stream instead of re-hashing w per edge per sub-round. The split reuses
// the CSR's own segment boundaries — vertex v's light edges occupy
// to[OutIdx[v]:bound[v]], its heavy edges to[bound[v]:OutIdx[v+1]].
type splitCSR struct {
	bound []uint64 // per-vertex light/heavy boundary inside the CSR segment
	to    []uint32
	w     []uint64
}

// weighOutEdges evaluates w once per owned out-edge, in CSR order, and
// returns the weights with their sum: the weights cost one pass per job no
// matter how many rounds (or batched sources) re-relax an edge, and the
// Δ reduction needs no second pass.
func weighOutEdges(ctx *core.Ctx, g *core.Graph, w edgeWeights) (wts []uint64, sum uint64) {
	wts = make([]uint64, g.MOut())
	ctx.Pool.For(int(g.NLoc), func(lo, hi, _ int) {
		var s uint64
		for v := lo; v < hi; v++ {
			s += weighRow(w, g, uint32(v), g.OutNeighbors(uint32(v)), true, wts[g.OutIdx[v]:g.OutIdx[v+1]])
		}
		atomic.AddUint64(&sum, s)
	})
	return wts, sum
}

// splitByWeight partitions every owned vertex's (target, weight) segment
// by weight class under delta, in place over wts (which becomes the
// split's w) and in one parallel pass (segments are disjoint).
func splitByWeight(ctx *core.Ctx, g *core.Graph, wts []uint64, delta uint64) *splitCSR {
	s := &splitCSR{
		bound: make([]uint64, g.NLoc),
		to:    make([]uint32, len(wts)),
		w:     wts,
	}
	ctx.Pool.For(int(g.NLoc), func(lo, hi, _ int) {
		for v := lo; v < hi; v++ {
			b, e := g.OutIdx[v], g.OutIdx[v+1]
			s.bound[v] = b + uint64(lightFirst(g.OutEdges[b:e], s.to[b:e], wts[b:e], delta))
		}
	})
	return s
}

// lightFirst partitions one segment — targets read from out, weights in
// ws — so that the edges with w <= delta come first, writing the permuted
// targets to to and permuting ws in place; it returns the light count. The
// partition is the branch-free Lomuto form: edge j always swaps with the
// boundary slot i, and i advances by the 0/1 outcome of w <= delta, because
// the class of a hashed weight is a coin flip a branch would mispredict.
// Light edges keep their CSR order (the relaxation schedule depends on
// it); the heavy ones end up permuted, and are relaxed once each.
func lightFirst(out, to []uint32, ws []uint64, delta uint64) int {
	to, ws = to[:len(out)], ws[:len(out)]
	i := 0
	for j, u := range out {
		wt := ws[j]
		to[j], ws[j] = to[i], ws[i]
		to[i], ws[i] = u, wt
		_, heavy := bits.Sub64(delta, wt, 0)
		i += int(1 - heavy)
	}
	return i
}

// relaxRange relaxes the edge class starts[v]..ends[v] of every v in src
// against dist and appends to loc and clm the owned and ghost slots it was
// first to improve since their inFlight flag last dropped; it also returns
// the edges scanned. ~96% of relaxations lower nothing, so the test runs in
// nextImproving — a leaf loop, which the compiler keeps in registers — and
// only an improving edge comes back here for the locked min, the flag and
// the append.
func (s *splitCSR) relaxRange(src []uint32, starts, ends, dist []uint64, inFlight []int32, nLoc uint32, loc, clm []uint32) (_, _ []uint32, edges uint64) {
	for _, v := range src {
		dv := atomic.LoadUint64(&dist[v])
		b, e := starts[v], ends[v]
		edges += e - b
		to, ws := s.to[b:e], s.w[b:e]
		for j := nextImproving(to, ws, dist, dv, 0); j < len(to); j = nextImproving(to, ws, dist, dv, j+1) {
			u := to[j]
			if atomicMinU64(&dist[u], dv+ws[j]) &&
				atomic.CompareAndSwapInt32(&inFlight[u], 0, 1) {
				if u < nLoc {
					loc = append(loc, u)
				} else {
					clm = append(clm, u)
				}
			}
		}
	}
	return loc, clm, edges
}

// nextImproving returns the first edge j >= from whose relaxation from a
// source at distance dv would lower its target's distance, or len(to).
func nextImproving(to []uint32, ws, dist []uint64, dv uint64, from int) int {
	ws = ws[:len(to)]
	for j := from; j < len(to); j++ {
		// nd < dv is overflow beyond any real path length.
		if nd := dv + ws[j]; nd >= dv && nd < atomic.LoadUint64(&dist[to[j]]) {
			return j
		}
	}
	return len(to)
}

// SSSPDelta computes shortest paths from the global vertex root along
// directed edges under w by Δ-stepping with bucket width delta (0 picks the
// Meyer–Sanders width, see autoDelta). Distances are bit-identical for every
// delta: each computes the fixed point of the same monotone min relaxations.
//
// Ghost slots cache the best distance ever shipped (atomic min), so each
// sub-round forwards each ghost's improvement at most once. Every light
// sub-round and every bucket's heavy phase is one claimRound, and the round's
// control words pick the next bucket: no other collective runs per bucket.
func SSSPDelta(ctx *core.Ctx, g *core.Graph, root uint32, w WeightFunc, delta uint64) (*SSSPResult, error) {
	runs, err := ssspRuns(ctx, g, []uint32{root}, edgeWeights{fn: w}, delta)
	if err != nil {
		return nil, err
	}
	return runs[0], nil
}

// ssspRuns answers one SSSP job: a Δ-stepping run per root, in order, on
// one runner — so the weight pass, the Δ reduction and the light/heavy
// split are paid once per job, not once per root. Each result is what
// SSSPDelta returns for that root alone, schedule counters included.
func ssspRuns(ctx *core.Ctx, g *core.Graph, roots []uint32, w edgeWeights, delta uint64) ([]*SSSPResult, error) {
	if err := require1D(g, "SSSP"); err != nil {
		return nil, err
	}
	for _, root := range roots {
		if root >= g.NGlobal {
			return nil, fmt.Errorf("analytics: SSSP root %d outside %d vertices", root, g.NGlobal)
		}
	}
	r, err := newSSSPRunner(ctx, g, w, delta)
	if err != nil {
		return nil, err
	}
	runs := make([]*SSSPResult, len(roots))
	for s, root := range roots {
		if runs[s], err = r.run(root); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// autoDelta is Meyer and Sanders' bucket width Θ(W̄/d̄) for mean weight
// W̄ = sumW/m and mean out-degree d̄ = m/n: ⌈4·W̄/d̄⌉ = ⌈4·sumW·n/m²⌉, at
// least 1. For weights spread up to 2W̄ it leaves a vertex two light
// out-edges in expectation, so a bucket is a thin distance band every rank
// relaxes at once.
func autoDelta(sumW, m, n uint64) uint64 {
	if m == 0 {
		return 1
	}
	hi, lo := bits.Mul64(sumW, 4*n)
	if hi >= m { // ⌈x/m⌉ takes more than 64 bits: the width is past 2^64/m
		return ^uint64(0) / m
	}
	q, r := bits.Div64(hi, lo, m) // ⌈⌈x/m⌉/m⌉ = ⌈x/m²⌉
	if r != 0 {
		q++
	}
	d := q / m
	if q%m != 0 {
		d++
	}
	return max(d, 1)
}

// ssspRunner is the part of a Δ-stepping run that depends on the graph,
// the weights and Δ but not on the root: the weighed and split out-CSR, the
// bucket store, the claim round, and the per-vertex arrays, which run resets
// rather than reallocates.
type ssspRunner struct {
	ctx   *core.Ctx
	g     *core.Graph
	delta uint64
	split *splitCSR
	bk    *bucketStore
	rd    *claimRound

	dist []uint64 // over owned and ghost vertices
	// inFlight dedups per-sub-round improvement lists across threads (owned
	// slots -> bucket updates, ghost slots -> claims); within a run the
	// flags are cleared via the lists themselves, never an NTotal sweep.
	inFlight []int32
	// settledAt[v] == k+1 marks v as already collected for bucket k's heavy
	// phase (an in-bucket decrease-key re-extracts a vertex; it must relax
	// its heavy edges only once).
	settledAt []uint64

	extracted, settled, cascade, locals, claims []uint32
	localPer, claimPer                          [][]uint32
}

// newSSSPRunner runs the per-job prologue. Collective.
func newSSSPRunner(ctx *core.Ctx, g *core.Graph, w edgeWeights, delta uint64) (*ssspRunner, error) {
	rd, err := newClaimRound(ctx, g, "SSSP")
	if err != nil {
		return nil, err
	}
	tr := ctx.Comm.Tracer()
	mark := tr.Now()
	wts, sumW := weighOutEdges(ctx, g, w)
	tr.Span(SpanSSSPWeigh, mark, int64(len(wts)))
	red, err := comm.AllreduceSlice(ctx.Comm, []uint64{sumW, g.MOut()}, comm.OpSum)
	if err != nil {
		return nil, err
	}
	if delta == 0 {
		delta = autoDelta(red[0], red[1], uint64(g.NGlobal))
	}
	mark = tr.Now()
	split := splitByWeight(ctx, g, wts, delta)
	tr.Span(SpanSSSPSplit, mark, int64(len(wts)))

	nt := ctx.Pool.Threads()
	return &ssspRunner{
		ctx: ctx, g: g, delta: delta, split: split, rd: rd,
		bk:        newBucketStore(int(g.NLoc), delta, bucketWindow),
		dist:      make([]uint64, g.NTotal()),
		inFlight:  make([]int32, g.NTotal()),
		settledAt: make([]uint64, g.NLoc),
		localPer:  make([][]uint32, nt),
		claimPer:  make([][]uint32, nt),
	}, nil
}

// relax fans src's edge class out over the pool — light edges span
// starts[v]..ends[v] = OutIdx[v]..bound[v], heavy bound[v]..OutIdx[v+1] —
// and appends the improvements, deduplicated, to locals and claims.
func (r *ssspRunner) relax(src []uint32, starts, ends []uint64, locals, claims []uint32) (_, _ []uint32, edges uint64) {
	r.ctx.Pool.For(len(src), func(lo, hi, tid int) {
		loc, clm, ne := r.split.relaxRange(src[lo:hi], starts, ends, r.dist, r.inFlight, r.g.NLoc, r.localPer[tid][:0], r.claimPer[tid][:0])
		r.localPer[tid], r.claimPer[tid] = loc, clm
		atomic.AddUint64(&edges, ne)
	})
	for t, loc := range r.localPer {
		locals = append(locals, loc...)
		claims = append(claims, r.claimPer[t]...)
		r.localPer[t], r.claimPer[t] = loc[:0], r.claimPer[t][:0]
	}
	return locals, claims, edges
}

// bucketGap is bucket next's distance past k as a control word's value:
// ctlNone for no bucket, saturating one below it — the group then moves to
// the saturated bucket, finds it empty, and reads the rest of the gap there.
func bucketGap(next, k uint64) uint32 {
	if next == infBucket {
		return ctlNone
	}
	return uint32(min(next-k, uint64(ctlNone-1)))
}

// run is one Δ-stepping traversal from root (already range-checked).
// Collective; every rank passes the same root.
//
// The group works bucket k, starting at the root's, one claimRound per
// step. A light sub-round extracts bucket k and relaxes its light edges,
// cascading locally through every light chain that stays inside bucket k —
// so only a chain's rank crossings cost a sub-round. A heavy phase relaxes
// the heavy edges of every vertex bucket k settled, once, into later
// buckets. Each control word counts the vertices its sender relaxed and
// names the smallest bucket it holds or is claiming into, relative to k:
// while that minimum is k, another light sub-round follows; then the heavy
// phase, whose minimum is the next bucket. A light sub-round in which nobody
// extracted anything sent no claims, so its minimum is exact too: if it
// opened the bucket (a claim named it, and lost to a shorter distance), the
// group moves straight on.
func (r *ssspRunner) run(root uint32) (*SSSPResult, error) {
	ctx, g, split, bk, rd := r.ctx, r.g, r.split, r.bk, r.rd
	dist, inFlight, settledAt := r.dist, r.inFlight, r.settledAt
	bk.reset()
	for v := range dist {
		dist[v] = InfDistance
	}
	clear(inFlight)
	clear(settledAt)
	if lid := g.LocalID(root); lid != core.InvalidLocal && lid < g.NLoc {
		dist[lid] = 0
		bk.update(lid, 0)
	}

	tr := ctx.Comm.Tracer()
	mark := tr.Now()
	var trav obs.TraversalStats
	extracted, settled, cascade, locals, claims := r.extracted, r.settled, r.cascade, r.locals, r.claims
	var k uint64
	light, opened := true, false
	// take moves the vertices of from that are now in bucket k to cascade
	// and appends the others to keep.
	take := func(from, keep []uint32) []uint32 {
		for _, u := range from {
			if bk.bucketOf(dist[u]) == k {
				inFlight[u] = 0
				bk.bktOf[u] = infBucket
				cascade = append(cascade, u)
			} else {
				keep = append(keep, u)
			}
		}
		return keep
	}
	for {
		var active int
		var edges uint64
		locals, claims = locals[:0], claims[:0]
		if light {
			extracted = bk.extract(k, extracted[:0])
			active = len(extracted)
			for frontier := extracted; len(frontier) > 0; frontier = cascade {
				for _, v := range frontier {
					if settledAt[v] != k+1 {
						settledAt[v] = k + 1
						settled = append(settled, v)
					}
				}
				n := len(locals)
				locals, claims, edges = r.relax(frontier, g.OutIdx, split.bound, locals, claims)
				bk.stats.LightRelaxations += edges
				// Same-bucket improvements cascade now: their flag drops, so a
				// further improvement re-enqueues them with the smaller
				// distance, and they leave the store, where an earlier
				// sub-round may have filed them in a later bucket. The others
				// file at the end with whatever distance the cascade settles on
				// — unless a later relaxation brings one into bucket k (its
				// flag stayed up, so nothing re-enqueued it): before the
				// sub-round ends, a last pass takes those too, so it ends at a
				// local fixed point whatever order the threads relaxed in.
				cascade = cascade[:0]
				if locals = take(locals[n:], locals[:n]); len(cascade) == 0 {
					locals = take(locals, locals[:0])
				}
			}
		} else {
			active = len(settled)
			locals, claims, edges = r.relax(settled, split.bound, g.OutIdx[1:], locals, claims)
			bk.stats.HeavyRelaxations += edges
		}
		for _, u := range locals {
			bk.update(u, dist[u])
		}

		next, floor, wide := bk.localMin(), k*r.delta, false
		for _, u := range claims {
			next = min(next, bk.bucketOf(dist[u]))
			wide = wide || dist[u]-floor >= 1<<32
		}
		rd.open(ctx, ctlWord(active, bucketGap(next, k)), claims, floor, wide)
		for _, u := range claims {
			rd.put(u, dist[u])
		}
		gActive, gap, err := rd.exchange(ctx)
		if err != nil {
			return nil, err
		}
		for _, l := range [][]uint32{locals, claims} {
			for _, u := range l {
				inFlight[u] = 0
			}
		}
		for q := range ctx.Size() {
			seg := rd.claims(q)
			for i := range seg.len() {
				v, x := seg.at(i)
				if x < floor {
					return nil, rd.corrupt(ctx, q, "claim of distance %d below bucket %d's floor %d", x, k, floor)
				}
				if x < dist[v] {
					dist[v] = x
					bk.update(v, x)
				}
			}
		}
		trav.SparseExchanges++
		trav.SparseBytes += 8 * uint64(len(rd.send)-ctx.Size())

		if light {
			if gActive > 0 {
				bk.stats.InnerRounds++
			}
			opened = opened || gActive > 0
			if gap == 0 {
				continue
			}
			if opened {
				light = false
				continue
			}
		} else {
			bk.stats.Buckets++
			tr.Span(SpanSSSPBucket, mark, int64(len(settled)))
			settled = settled[:0]
		}
		if gap == ctlNone {
			break
		}
		k += uint64(gap)
		bk.advance(k)
		light, opened, mark = true, false, tr.Now()
	}
	r.extracted, r.settled, r.cascade, r.locals, r.claims = extracted, settled, cascade, locals, claims

	owned := dist[:g.NLoc]
	localReached := ctx.Pool.SumRangeU64(len(owned), func(i int) uint64 {
		if owned[i] != InfDistance {
			return 1
		}
		return 0
	})
	reached, err := comm.Allreduce(ctx.Comm, localReached, comm.OpSum)
	if err != nil {
		return nil, err
	}
	return &SSSPResult{
		Dist:      append([]uint64(nil), owned...),
		Rounds:    int(bk.stats.InnerRounds + bk.stats.Buckets),
		Reached:   reached,
		Delta:     r.delta,
		Traversal: trav,
		Buckets:   bk.stats,
	}, nil
}
