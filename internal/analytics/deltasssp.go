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
// Bellman-Ford. The sweet spot trades bucket-loop latency (more Allreduce
// barriers) against wasted relaxations of not-yet-settled distances —
// which, in distributed memory, are exactly the re-shipped ghost
// improvements that dominate the round-based SSSP's wire volume.

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
// returns the weights with their sum: the weight function costs one pass
// per job no matter how many rounds (or batched sources) re-relax an edge,
// and the mean-weight reduction needs no second pass.
func weighOutEdges(ctx *core.Ctx, g *core.Graph, w WeightFunc) (wts []uint64, sum uint64) {
	wts = make([]uint64, g.MOut())
	ctx.Pool.For(int(g.NLoc), func(lo, hi, _ int) {
		var s uint64
		for v := lo; v < hi; v++ {
			vGid := g.GlobalID(uint32(v))
			seg := wts[g.OutIdx[v]:g.OutIdx[v+1]]
			for i, u := range g.OutNeighbors(uint32(v)) {
				wt := w(vGid, g.GlobalID(u))
				seg[i] = wt
				s += wt
			}
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
// against dist and returns the owned (loc) and ghost (clm) slots it was
// first to improve since their inFlight flag last dropped, plus the edges
// scanned. ~96% of relaxations lower nothing, so the test runs in
// nextImproving — a leaf loop, which the compiler keeps in registers — and
// only an improving edge comes back here for the locked min, the flag and
// the append.
func (s *splitCSR) relaxRange(src []uint32, starts, ends, dist []uint64, inFlight []int32, nLoc uint32) (loc, clm []uint32, edges uint64) {
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
// globally reduced mean edge weight, the classic heuristic). Distances are
// bit-identical for every delta: each computes the fixed point of the same
// monotone min relaxations.
//
// Ghost slots cache the best distance ever shipped (atomic min), so each
// sub-round forwards each ghost's improvement at most once; per-sub-round
// claims travel sparse or dense by the engine's globally reduced byte
// estimate. Collective structure per bucket: one Allreduce picking the
// bucket, one Allreduce + claim exchange per light sub-round, one claim
// exchange for the heavy phase.
func SSSPDelta(ctx *core.Ctx, g *core.Graph, root uint32, w WeightFunc, delta uint64) (*SSSPResult, error) {
	runs, err := ssspRuns(ctx, g, []uint32{root}, w, delta)
	if err != nil {
		return nil, err
	}
	return runs[0], nil
}

// ssspRuns answers one SSSP job: a Δ-stepping run per root, in order, on
// one runner — so the weight pass, the Δ reduction and the light/heavy
// split are paid once per job, not once per root. Each result is what
// SSSPDelta returns for that root alone, schedule counters included.
func ssspRuns(ctx *core.Ctx, g *core.Graph, roots []uint32, w WeightFunc, delta uint64) ([]*SSSPResult, error) {
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

// ssspRunner is the part of a Δ-stepping run that depends on the graph,
// the weights and Δ but not on the root: the frontier engine, the weighed
// and split out-CSR, the bucket store and its claim exchange, and the
// per-vertex arrays, which run resets rather than reallocates.
type ssspRunner struct {
	ctx   *core.Ctx
	g     *core.Graph
	eng   *frontierEngine
	delta uint64
	split *splitCSR
	bk    *bucketStore
	bc    *bucketComm

	dist []uint64 // over owned and ghost vertices
	// inFlight dedups per-sub-round improvement lists across threads (owned
	// slots -> bucket updates, ghost slots -> claims); within a run the
	// flags are cleared via the lists themselves, never an NTotal sweep.
	inFlight []int32
	// settledAt[v] == k+1 marks v as already collected for bucket k's heavy
	// phase (an in-bucket decrease-key re-extracts a vertex; it must relax
	// its heavy edges only once).
	settledAt []uint64

	extracted, settled, allLocals, allClaims []uint32
}

// newSSSPRunner runs the per-job prologue. Collective.
func newSSSPRunner(ctx *core.Ctx, g *core.Graph, w WeightFunc, delta uint64) (*ssspRunner, error) {
	eng := newFrontierEngine(ctx, g)

	// One collective seeds everything rank-invariant: the mean edge weight
	// (the default Δ) and the global halo width the engine's representation
	// choice needs.
	tr := ctx.Comm.Tracer()
	mark := tr.Now()
	wts, sumW := weighOutEdges(ctx, g, w)
	tr.Span(SpanSSSPWeigh, mark, int64(len(wts)))
	red, err := comm.AllreduceSlice(ctx.Comm, []uint64{sumW, g.MOut(), uint64(g.NGst)}, comm.OpSum)
	if err != nil {
		return nil, err
	}
	eng.gGhosts = red[2]
	if delta == 0 {
		delta = 1
		if red[1] > 0 && red[0]/red[1] > 1 {
			delta = red[0] / red[1]
		}
	}
	mark = tr.Now()
	split := splitByWeight(ctx, g, wts, delta)
	tr.Span(SpanSSSPSplit, mark, int64(len(wts)))

	return &ssspRunner{
		ctx: ctx, g: g, eng: eng, delta: delta, split: split,
		bk:        newBucketStore(int(g.NLoc), delta, bucketWindow),
		bc:        newBucketComm(eng),
		dist:      make([]uint64, g.NTotal()),
		inFlight:  make([]int32, g.NTotal()),
		settledAt: make([]uint64, g.NLoc),
	}, nil
}

// run is one Δ-stepping traversal from root (already range-checked).
// Collective; every rank passes the same root.
func (r *ssspRunner) run(root uint32) (*SSSPResult, error) {
	ctx, g, eng, split, bk, bc := r.ctx, r.g, r.eng, r.split, r.bk, r.bc
	dist, inFlight, settledAt := r.dist, r.inFlight, r.settledAt
	eng.stats = obs.TraversalStats{}
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

	nt := ctx.Pool.Threads()
	localPer := make([][]uint32, nt)
	claimPer := make([][]uint32, nt)
	// relax fans src's edge class out in parallel — light edges span
	// starts[v]..ends[v] = OutIdx[v]..bound[v], heavy bound[v]..OutIdx[v+1]
	// — and deduplicates improvements into combined locals/claims lists.
	relax := func(src []uint32, starts, ends []uint64) (locals, claims []uint32, edges uint64) {
		ctx.Pool.For(len(src), func(lo, hi, tid int) {
			loc, clm, ne := split.relaxRange(src[lo:hi], starts, ends, dist, inFlight, g.NLoc)
			localPer[tid], claimPer[tid] = loc, clm
			atomic.AddUint64(&edges, ne)
		})
		for t := 0; t < nt; t++ {
			locals = append(locals, localPer[t]...)
			claims = append(claims, claimPer[t]...)
			localPer[t], claimPer[t] = nil, nil
		}
		return locals, claims, edges
	}
	// arrive merges one claimed distance into an owned vertex (serial).
	arrive := func(v uint32, x uint64) {
		if x < dist[v] {
			dist[v] = x
			bk.update(v, x)
		}
	}
	clearFlags := func(lists ...[]uint32) {
		for _, l := range lists {
			for _, u := range l {
				inFlight[u] = 0
			}
		}
	}

	tr := ctx.Comm.Tracer()
	rounds := 0
	extracted, settled, allLocals, allClaims := r.extracted, r.settled, r.allLocals, r.allClaims
	for {
		k, ok, err := bk.nextBucket(ctx)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		mark := tr.Now()
		settled = settled[:0]
		// Light phase: relax light edges to a fixed point within bucket k.
		// Each sub-round's Allreduce of the extracted count keeps the group
		// in lockstep (the exchange itself is collective). Within a
		// sub-round, light chains that stay inside bucket k cascade locally
		// without touching the bucket or a collective — only cross-rank
		// chain hops cost a sub-round, so the bucket-loop latency scales
		// with the chain's rank-crossing depth, not its length.
		for {
			extracted = bk.extract(k, extracted[:0])
			gActive, err := comm.Allreduce(ctx.Comm, uint64(len(extracted)), comm.OpSum)
			if err != nil {
				return nil, err
			}
			if gActive == 0 {
				break
			}
			rounds++
			bk.stats.InnerRounds++
			allLocals, allClaims = allLocals[:0], allClaims[:0]
			frontier := extracted
			for len(frontier) > 0 {
				for _, v := range frontier {
					if settledAt[v] != k+1 {
						settledAt[v] = k + 1
						settled = append(settled, v)
					}
				}
				locals, claims, edges := relax(frontier, g.OutIdx, split.bound)
				bk.stats.LightRelaxations += edges
				allClaims = append(allClaims, claims...)
				// Same-bucket improvements cascade now (their flag drops so
				// a further improvement re-enqueues them with the smaller
				// distance); later-bucket improvements file at the end with
				// whatever distance the cascade settles on.
				cascade := locals[:0]
				for _, u := range locals {
					if bk.bucketOf(dist[u]) == k {
						inFlight[u] = 0
						cascade = append(cascade, u)
					} else {
						allLocals = append(allLocals, u)
					}
				}
				frontier = cascade
			}
			if err := bc.exchange(ctx, allClaims, dist, arrive); err != nil {
				return nil, err
			}
			for _, u := range allLocals {
				bk.update(u, dist[u])
			}
			clearFlags(allLocals, allClaims)
		}
		// Heavy phase: every vertex settled in bucket k relaxes its heavy
		// edges once; all targets land in buckets > k, so one exchange
		// suffices.
		rounds++
		locals, claims, edges := relax(settled, split.bound, g.OutIdx[1:])
		bk.stats.HeavyRelaxations += edges
		if err := bc.exchange(ctx, claims, dist, arrive); err != nil {
			return nil, err
		}
		for _, u := range locals {
			bk.update(u, dist[u])
		}
		clearFlags(locals, claims)
		tr.Span(SpanSSSPBucket, mark, int64(len(settled)))
	}
	r.extracted, r.settled, r.allLocals, r.allClaims = extracted, settled, allLocals, allClaims

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
		Rounds:    rounds,
		Reached:   reached,
		Delta:     r.delta,
		Traversal: eng.stats,
		Buckets:   bk.stats,
	}, nil
}
