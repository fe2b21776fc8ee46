package analytics

import (
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
)

// The adaptive frontier engine: direction-optimizing traversal (Beamer et
// al.) with a hybrid sparse/dense frontier exchange, behind BFS; WCC's
// traversal phase and the multi-source kernels reach it through the BFS
// runner.
//
// Per step the driver loops reduce three local quantities with the same
// Allreduce they already used for termination — frontier vertex count
// (nf), frontier edge mass (mf), and unexplored edge mass (mu) — and every
// rank derives the next step's strategy from the identical global sums:
//
//   - direction: top-down push over the traversal CSR while the frontier
//     is small; bottom-up pull over the reverse CSR (with a bitmap
//     frontier) once mf > mu/switchAlpha; back to push when
//     nf < n/switchBeta.
//   - representation: push claims travel on the claim round of bucket.go,
//     one 64-bit owner-relative halo slot each, while few, and as a dense
//     1-bit-per-halo-slot packed bitmap (comm.AlltoallvBits) once the claim
//     words would cost more than the fixed-width bitmap. Pull steps always
//     refresh ghost frontier bits densely.
//
// Correctness is representation-independent: levels, distances, and labels
// are fixed points of monotone updates, and both representations deliver
// exactly the same claim multiset per step (one claim per (rank, vertex)
// after the CAS dedup), so every mode produces bit-identical outputs. The
// kernels have no tie-dependent outputs (no parent arrays), so no
// tie-break policy is needed.

// Direction-switch thresholds (Beamer et al.): enter bottom-up when the
// frontier's edge mass exceeds 1/switchAlpha of the unexplored mass, return
// to top-down when the frontier shrinks below 1/switchBeta of the vertex
// set. Fixed rather than configurable: a rank holding different values
// would silently break the group's lockstep, and no workload has needed
// others.
const (
	switchAlpha = 14.0
	switchBeta  = 24.0
)

// stepPlan is the strategy of one frontier step.
type stepPlan struct {
	pull  bool // bottom-up over the reverse CSR with a bitmap frontier
	dense bool // frontier exchange ships packed bits, not claim words
}

// frontierEngine carries a 1D runner's traversal state: the DirsBoth halo's
// packed-segment geometry and the claim round over the halo (laid by
// bfsRunnerFor), the frontier bitmap, packed-word scratch, and the per-step
// counters. pol is the running traversal's policy, read from ctx.Traverse by
// every run: a runner outlives the job that built it.
type frontierEngine struct {
	g   *core.Graph
	pol core.TraversalMode

	*haloGeom
	rd *claimRound // over the halo: the sparse push levels' round

	bits *par.Bitmap // frontier bitmap over NTotal (pull steps)

	packScratch    []uint64 // packed words staging (both directions)
	arrivedScratch []uint32 // retained arrivals list of the claim exchanges
	bsc            comm.BitsScratch

	// Per-thread discovery staging of one step, the combined ghost-claim
	// list of a push step and per-thread queue mass partials, retained
	// across steps and traversals.
	nextPer, sendPer [][]uint32
	sendStage        []uint32
	massPer          [][2]uint64

	// Globals every rank computed identically.
	gGhosts uint64 // total halo width == global ghost slot count
	nGlobal uint64

	stats obs.TraversalStats
}

// plan derives the next step's strategy from the globally reduced frontier
// statistics. Every rank calls it with identical arguments, so the whole
// group switches in lockstep.
func (e *frontierEngine) plan(prev stepPlan, gNf, gMf, gMu uint64) stepPlan {
	switch e.pol {
	case core.TraversePush:
		return stepPlan{}
	case core.TraverseDense:
		return stepPlan{pull: true, dense: true}
	}
	pl := prev
	if prev.pull {
		if float64(gNf) < float64(e.nGlobal)/switchBeta {
			pl.pull = false
		}
	} else if gMu > 0 && float64(gMf) > float64(gMu)/switchAlpha {
		pl.pull = true
	}
	if pl.pull {
		pl.dense = true
		return pl
	}
	// Push representation: sparse ships a 64-bit word per claim, dense ships
	// one bit per halo slot regardless of frontier size. mf bounds the claim
	// count from above (each frontier edge yields at most one claim).
	pl.dense = 64*min(gMf, e.gGhosts) > e.gGhosts
	return pl
}

// ensureBits lazily allocates the frontier bitmap.
func (e *frontierEngine) ensureBits() *par.Bitmap {
	if e.bits == nil {
		e.bits = par.NewBitmap(int(e.g.NTotal()))
	}
	return e.bits
}

// words returns retained packed-word staging of at least n words, zeroed.
func (e *frontierEngine) words(n int) []uint64 {
	if cap(e.packScratch) < n {
		e.packScratch = make([]uint64, n)
	}
	w := e.packScratch[:n]
	for i := range w {
		w[i] = 0
	}
	return w
}

// staging returns the per-thread discovery buffers, empty, for nt threads.
func (e *frontierEngine) staging(nt int) (nextPer, sendPer [][]uint32) {
	if len(e.nextPer) < nt {
		e.nextPer = make([][]uint32, nt)
		e.sendPer = make([][]uint32, nt)
	}
	return e.nextPer[:nt], e.sendPer[:nt]
}

// queueMass returns, from one degree pass over queue, the edge mass a
// top-down step explores from it (push) and the mass a bottom-up step
// examines into it over the reverse adjacency (pull).
func (e *frontierEngine) queueMass(ctx *core.Ctx, queue []uint32, dir Dir) (push, pull uint64) {
	g, nt := e.g, ctx.Pool.Threads()
	if len(e.massPer) < nt {
		e.massPer = make([][2]uint64, nt)
	}
	part := e.massPer[:nt]
	clear(part)
	ctx.Pool.For(len(queue), func(lo, hi, tid int) {
		var out, in uint64
		for _, v := range queue[lo:hi] {
			out += g.OutDegree(v)
			in += g.InDegree(v)
		}
		part[tid] = [2]uint64{out, in}
	})
	var out, in uint64
	for _, m := range part {
		out, in = out+m[0], in+m[1]
	}
	switch dir {
	case Forward:
		return out, in
	case Backward:
		return in, out
	}
	return out + in, out + in
}

// exchangeSparseClaims sends each claimed ghost lid to its owner on the
// claim round, as its slot in the owner's halo queue with payload 0 under a
// control word counting the claims, and returns the owned lids claimed by
// remote ranks, multiplicity preserved (one per claiming rank). Callers
// deduplicate against their own state arrays.
func (e *frontierEngine) exchangeSparseClaims(ctx *core.Ctx, claims []uint32) ([]uint32, error) {
	rd := e.rd
	rd.open(ctx, ctlWord(len(claims), ctlNone), claims, 0, false)
	for _, u := range claims {
		rd.put(u, 0)
	}
	if _, _, err := rd.exchange(ctx); err != nil {
		return nil, err
	}
	arrived := e.arrivedScratch[:0]
	for r := range ctx.Size() {
		seg := rd.claims(r)
		if seg.wide {
			return nil, rd.corrupt(ctx, r, "wide claims")
		}
		for _, w := range seg.words {
			if uint32(w) != 0 {
				return nil, rd.corrupt(ctx, r, "claim with payload %d", uint32(w))
			}
			arrived = append(arrived, seg.verts[w>>32])
		}
	}
	e.arrivedScratch = arrived
	e.stats.SparseExchanges++
	e.stats.SparseBytes += 8 * uint64(len(claims))
	return arrived, nil
}

// exchangeDenseClaims is the dense counterpart of exchangeSparseClaims: the
// claimed ghost lids travel to their owners as one packed bit per halo
// slot (the reverse direction of the halo), and the owned lids claimed by
// remote ranks return, the same multiset the sparse exchange delivers.
func (e *frontierEngine) exchangeDenseClaims(ctx *core.Ctx, claims []uint32) ([]uint32, error) {
	g, h := e.g, e.rd.h
	words := e.words(e.recvWords)
	for _, u := range claims {
		gi := u - g.NLoc
		r := int(g.GhostOwner[gi])
		bit := int(e.ghostSlot[gi])
		seg := words[e.recvWordOffs[r]:]
		seg[bit>>6] |= 1 << (bit & 63)
	}
	recv, offs, err := comm.AlltoallvBits(ctx.Comm, words, h.recvSegs, h.sendCounts, &e.bsc)
	if err != nil {
		return nil, err
	}
	arrived := e.arrivedScratch[:0]
	for r, n := range h.sendCounts {
		arrived = par.AppendSetBits(arrived, recv[offs[r]:], h.sendVerts[e.sendVertOff[r]:][:n])
	}
	e.arrivedScratch = arrived
	e.stats.DenseExchanges++
	dense := uint64(e.recvWords) * 8
	sparse := uint64(len(claims)) * 8
	e.stats.DenseBytes += dense
	if sparse > dense {
		e.stats.BytesSaved += sparse - dense
	}
	return arrived, nil
}

// refreshGhostBits ships the owned frontier bits to every rank holding a
// ghost copy (the forward direction of the halo) and sets the arriving
// ghost bits — the per-step input of a bottom-up pull. The ghost bits must
// be clear on entry.
func (e *frontierEngine) refreshGhostBits(ctx *core.Ctx) error {
	h, bits := e.rd.h, e.bits.Words()
	words := e.words(e.sendWords)
	for r, n := range h.sendCounts {
		par.GatherBits(ctx.Pool, words[e.sendWordOffs[r]:], bits, h.sendVerts[e.sendVertOff[r]:][:n])
	}
	recv, offs, err := comm.AlltoallvBits(ctx.Comm, words, h.sendCounts, h.recvSegs, &e.bsc)
	if err != nil {
		return err
	}
	for r, n := range h.recvSegs {
		par.ScatterBits(bits, recv[offs[r]:], h.recvLids[e.recvLidOff[r]:][:n])
	}
	e.stats.DenseExchanges++
	e.stats.DenseBytes += uint64(e.sendWords) * 8
	return nil
}

// pullStep runs one bottom-up level: finalize the frontier at level, set
// its bits, refresh ghost bits, then scan every unexplored owned vertex's
// reverse adjacency for an active neighbor, appending discoveries to next.
// Discoveries are purely local (each rank claims only its own vertices),
// so pull steps need no claim exchange at all.
func (e *frontierEngine) pullStep(ctx *core.Ctx, status []int32, queue, next []uint32, level int32, dir Dir) ([]uint32, error) {
	g := e.g
	bits := e.ensureBits()
	ctx.Pool.For(len(queue), func(lo, hi, _ int) {
		for _, v := range queue[lo:hi] {
			status[v] = level
		}
	})
	// The frontier bits are status == level over the owned vertices, packed
	// a whole word per write; a ghost never holds a level, and its words
	// are cleared for the refresh.
	words, nw := bits.Words(), par.BitmapWords(int(g.NLoc))
	ctx.Pool.For(nw, func(lo, hi, _ int) {
		for wi := lo; wi < hi; wi++ {
			var w uint64
			seg := status[wi*64 : min(wi*64+64, len(status))]
			for _, s := range seg {
				w = w>>1 | (uint64(uint32(s^level))-1)&(1<<63)
			}
			words[wi] = w >> (64 - len(seg))
		}
	})
	clear(words[nw:])
	if err := e.refreshGhostBits(ctx); err != nil {
		return nil, err
	}
	nextPer, _ := e.staging(ctx.Pool.Threads())
	ctx.Pool.For(int(g.NLoc), func(lo, hi, tid int) {
		nxt := nextPer[tid]
		for v := uint32(lo); v < uint32(hi); v++ {
			if status[v] != statusUnvisited {
				continue
			}
			found := false
			if dir == Forward || dir == Und {
				for _, u := range g.InNeighbors(v) {
					if bits.Get(u) {
						found = true
						break
					}
				}
			}
			if !found && (dir == Backward || dir == Und) {
				for _, u := range g.OutNeighbors(v) {
					if bits.Get(u) {
						found = true
						break
					}
				}
			}
			if found {
				status[v] = statusPending
				nxt = append(nxt, v)
			}
		}
		nextPer[tid] = nxt
	})
	for t := range nextPer {
		next = append(next, nextPer[t]...)
		nextPer[t] = nextPer[t][:0]
	}
	return next, nil
}

// stepSpanName returns the per-step direction span label for pl.
func stepSpanName(pl stepPlan) string {
	if pl.pull {
		return SpanFrontierPull
	}
	return SpanFrontierPush
}

// note records one executed step in the engine's counters.
func (e *frontierEngine) note(prev, cur stepPlan, first bool) {
	if cur.pull {
		e.stats.PullSteps++
	} else {
		e.stats.PushSteps++
	}
	if !first && prev.pull != cur.pull {
		e.stats.DirSwitches++
	}
}

// reduceStats globally sums the step statistics every rank's plan derives
// from: [frontier vertices, frontier push edge mass, unexplored pull edge
// mass]. The first call of a traversal piggybacks the global halo width
// (ghost slot count) as a fourth element, so the engine never spends an
// extra collective on it. This reduction doubles as the driver loop's
// termination test (nf == 0), replacing the scalar queue-size Allreduce, and
// its frontier sizes, summed over the levels, are the traversal's reach.
func (e *frontierEngine) reduceStats(ctx *core.Ctx, nf int, mf, mu uint64, withGhosts bool) ([3]uint64, error) {
	vals := [4]uint64{uint64(nf), mf, mu, uint64(e.g.NGst)}
	n := 3
	if withGhosts {
		n = 4
	}
	red, err := comm.AllreduceSlice(ctx.Comm, vals[:n], comm.OpSum)
	if err != nil {
		return [3]uint64{}, err
	}
	if withGhosts {
		e.gGhosts = red[3]
	}
	return [3]uint64{red[0], red[1], red[2]}, nil
}

// totalPullDeg is the initial unexplored pull edge mass of this rank: the
// reverse-adjacency size of the whole owned set, straight off the CSR
// index rows.
func totalPullDeg(g *core.Graph, dir Dir) uint64 {
	switch dir {
	case Forward:
		return g.MIn()
	case Backward:
		return g.MOut()
	}
	return g.MOut() + g.MIn()
}
