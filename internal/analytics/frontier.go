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
//   - representation: push claims travel as the sparse Alltoallv of vertex
//     ids while few, and as a dense 1-bit-per-halo-slot packed bitmap
//     (comm.AlltoallvBits) once ids would cost more than the fixed-width
//     bitmap. Pull steps always refresh ghost frontier bits densely.
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
	dense bool // frontier exchange ships packed bits, not an ID list
}

// frontierEngine carries the state of one traversal: the DirsBoth halo and
// its packed-segment geometry (looked up lazily, only if a dense step is
// ever chosen — retained across traversals when ctx carries a plan cache),
// the frontier bitmap, packed-word scratch, and the per-step counters.
type frontierEngine struct {
	g   *core.Graph
	pol core.Traversal

	halo      *Halo
	*haloGeom // nil until ensureHalo

	bits *par.Bitmap // frontier bitmap over NTotal (pull steps)

	packScratch    []uint64 // packed words staging (both directions)
	arrivedScratch []uint32 // retained arrivals list of the dense claim exchange
	bsc            comm.BitsScratch
	fsc            frontierScratch

	// Per-thread discovery staging of one step and the combined ghost-claim
	// list of a push step, retained across steps and traversals.
	nextPer, sendPer [][]uint32
	sendStage        []uint32

	// Globals every rank computed identically.
	gGhosts uint64 // total halo width == global ghost slot count
	nGlobal uint64

	stats obs.TraversalStats
}

func newFrontierEngine(ctx *core.Ctx, g *core.Graph) *frontierEngine {
	return &frontierEngine{g: g, pol: ctx.Traverse, nGlobal: uint64(g.NGlobal)}
}

// plan derives the next step's strategy from the globally reduced frontier
// statistics. Every rank calls it with identical arguments, so the whole
// group switches in lockstep.
func (e *frontierEngine) plan(prev stepPlan, gNf, gMf, gMu uint64) stepPlan {
	switch e.pol.Mode {
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
	// Push representation: sparse ships 32 bits per claim, dense ships one
	// bit per halo slot regardless of frontier size. mf bounds the claim
	// count from above (each frontier edge yields at most one claim).
	est := gMf
	if est > e.gGhosts {
		est = e.gGhosts
	}
	pl.dense = e.gGhosts > 0 && 32*est > e.gGhosts
	return pl
}

// planNeedsHalo reports whether executing pl requires the retained halo.
func (e *frontierEngine) planNeedsHalo(pl stepPlan) bool { return pl.pull || pl.dense }

// ensureHalo fetches the DirsBoth halo and its packed-segment geometry on
// first dense/pull use. Collective when the halo has to be built: the plan
// that triggers it is identical on every rank, and so is the plan cache.
func (e *frontierEngine) ensureHalo(ctx *core.Ctx) error {
	if e.haloGeom != nil {
		return nil
	}
	h, built, err := haloFor(ctx, e.g, DirsBoth)
	if err != nil {
		return err
	}
	if built {
		e.stats.HaloBuilds++
	}
	gm, err := h.geometry()
	if err != nil {
		return err
	}
	e.halo, e.haloGeom = h, gm
	return nil
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

// pushDeg returns the edge mass a top-down step explores from v; pullDeg
// the mass a bottom-up step examines into v (the reverse adjacency).
func pushDeg(g *core.Graph, v uint32, dir Dir) uint64 {
	switch dir {
	case Forward:
		return g.OutDegree(v)
	case Backward:
		return g.InDegree(v)
	}
	return g.OutDegree(v) + g.InDegree(v)
}

func pullDeg(g *core.Graph, v uint32, dir Dir) uint64 {
	switch dir {
	case Forward:
		return g.InDegree(v)
	case Backward:
		return g.OutDegree(v)
	}
	return g.OutDegree(v) + g.InDegree(v)
}

// exchangeDenseClaims is the dense counterpart of exchangeFrontier: the
// claimed ghost lids travel to their owners as one packed bit per halo
// slot (the reverse direction of the halo), and the owned lids claimed by
// remote ranks return, multiplicity preserved (one per claiming rank, the
// same multiset the sparse exchange delivers).
func (e *frontierEngine) exchangeDenseClaims(ctx *core.Ctx, claims []uint32) ([]uint32, error) {
	g, h := e.g, e.halo
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
	for r := range h.sendCounts {
		base := e.sendVertOff[r]
		par.ForEachSetBit(recv[offs[r]:], h.sendCounts[r], func(i int) {
			arrived = append(arrived, h.sendVerts[base+i])
		})
	}
	e.arrivedScratch = arrived
	e.stats.DenseExchanges++
	dense := uint64(e.recvWords) * 8
	sparse := uint64(len(claims)) * 4
	e.stats.DenseBytes += dense
	if sparse > dense {
		e.stats.BytesSaved += sparse - dense
	}
	return arrived, nil
}

// refreshGhostBits ships the owned frontier bits to every rank holding a
// ghost copy (the forward direction of the halo) and sets the arriving
// ghost bits — the per-step input of a bottom-up pull.
func (e *frontierEngine) refreshGhostBits(ctx *core.Ctx) error {
	h, bits := e.halo, e.bits
	words := e.words(e.sendWords)
	verts := h.sendVerts
	for r := range h.sendCounts {
		seg := words[e.sendWordOffs[r]:]
		base := e.sendVertOff[r]
		par.PackBits(ctx.Pool, seg[:par.BitmapWords(h.sendCounts[r])], h.sendCounts[r], func(i int) bool {
			return bits.Get(verts[base+i])
		})
	}
	recv, offs, err := comm.AlltoallvBits(ctx.Comm, words, h.sendCounts, h.recvSegs, &e.bsc)
	if err != nil {
		return err
	}
	for r := range h.recvSegs {
		base := e.recvLidOff[r]
		par.ForEachSetBit(recv[offs[r]:], h.recvSegs[r], func(i int) {
			bits.Set(h.recvLids[base+i])
		})
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
	bits.ClearAll(ctx.Pool)
	ctx.Pool.For(len(queue), func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			v := queue[i]
			status[v] = level
			bits.SetAtomic(v)
		}
	})
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
// termination test (nf == 0), replacing the scalar queue-size Allreduce.
func (e *frontierEngine) reduceStats(ctx *core.Ctx, queue []uint32, muLocal uint64, dir Dir, withGhosts bool) ([3]uint64, error) {
	g := e.g
	mf := ctx.Pool.SumRangeU64(len(queue), func(i int) uint64 { return pushDeg(g, queue[i], dir) })
	vals := [4]uint64{uint64(len(queue)), mf, muLocal, uint64(g.NGst)}
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

// noteSparse records one sparse exchange of n elements of elemBytes each.
func (e *frontierEngine) noteSparse(n, elemBytes int) {
	e.stats.SparseExchanges++
	e.stats.SparseBytes += uint64(n) * uint64(elemBytes)
}
