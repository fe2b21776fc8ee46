package analytics

import (
	"fmt"
	"sync/atomic"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
)

// The 2D checkerboard traversal engine (Buluç & Madduri, arXiv:1104.4518).
// A frontier step against a grid shard has two communication phases over
// the grid's sub-communicators instead of one all-to-all over the full
// group:
//
//   - expand: each owner Allgatherv's its frontier along its grid COLUMN,
//     since every member of the column holds a slice of the frontier
//     vertices' edges. Like the 1D engine, the frontier travels sparse
//     (vertex ids) while small and as a packed chunk bitmap once ids would
//     out-weigh it (32·|frontier| > n bits).
//   - fold: each rank scans its grid block for the frontier's neighbors and
//     ships the newly discovered destinations to their owners along its
//     grid ROW — sparse owner-chunk offsets, or per-peer chunk bitmaps once
//     32·|claims| exceeds the global dense fold width.
//
// Per-rank claim dedup uses a persistent bitmap over the row span (the
// destinations this block can ever touch), mirroring the 1D engine's CAS on
// ghost status: each rank claims each destination at most once per run, so
// both representations deliver the same claim multiset and the owner-side
// status dedup yields levels bit-identical to the 1D layout in every mode.
//
// There is no pull direction in 2D (vertex state never leaves the owner,
// so a bottom-up scan has nothing local to read); core.TraverseDense forces
// the dense wire representation instead. Levels are direction- and
// representation-invariant, so outputs still match every 1D mode.

// require1D rejects a 2D checkerboard shard for analytics that only
// implement the 1D ghost/halo machinery.
func require1D(g *core.Graph, analytic string) error {
	if g.Is2D() {
		return fmt.Errorf("analytics: %s does not support the 2d checkerboard layout; rebuild with a 1d partitioning (np, mp, rand, or pulp)", analytic)
	}
	return nil
}

// testAndSet atomically sets bit i of words, reporting whether this call
// flipped it (false when it was already set).
func testAndSet(words []uint64, i uint64) bool {
	w := &words[i>>6]
	mask := uint64(1) << (i & 63)
	for {
		old := atomic.LoadUint64(w)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(w, old, old|mask) {
			return true
		}
	}
}

// atomicMinU32 lowers *addr to v if v is smaller (monotone, lock-free).
func atomicMinU32(addr *uint32, v uint32) {
	for {
		old := atomic.LoadUint32(addr)
		if v >= old {
			return
		}
		if atomic.CompareAndSwapUint32(addr, old, v) {
			return
		}
	}
}

// grid2DEngine carries a bfsRunner's retained 2D state: the claim dedup
// bitmap over the row span, the globally agreed width of a dense fold,
// scan and exchange staging, and the step counters. Built once per runner;
// reset clears what one root leaves behind.
type grid2DEngine struct {
	g   *core.Graph
	l   *core.GridLayout
	pol core.TraversalMode

	// rowSeen has one bit per row-span slot; a set bit means this rank
	// already claimed that destination this run.
	rowSeen []uint64
	// gFoldBits is the global wire cost of one dense fold in bits (every
	// rank's off-rank row segments), reduced once at engine start; the
	// representation threshold compares 32·claims against it.
	gFoldBits uint64
	nGlobal   uint64

	claimPer [][]uint32 // scratch: per-thread claims of one scan
	claims   []uint32   // scratch: the scan's combined claims
	colIDs   []uint32   // scratch: translated column frontier
	words    []uint64   // scratch: packed bitmap staging
	counts   []int      // scratch: per-peer element counts
	offs     []int      // scratch: per-peer fill cursors
	send32   []uint32
	recv32   []uint32
	recvCts  []int
	recv64   []uint64
	recvCts2 []int

	stats obs.TraversalStats
}

func newGrid2DEngine(ctx *core.Ctx, g *core.Graph) (*grid2DEngine, error) {
	l := g.Grid
	e := &grid2DEngine{g: g, l: l, pol: ctx.Traverse, nGlobal: uint64(g.NGlobal)}
	e.rowSeen = make([]uint64, par.BitmapWords(int(l.RowSpan)))
	e.claimPer = make([][]uint32, ctx.Pool.Threads())
	if e.pol == core.TraverseAdaptive {
		// One collective fixes the dense-fold width for every run of the
		// engine; the forced modes never consult it (pol is identical
		// group-wide, so skipping the reduction stays in lockstep).
		local := uint64(l.RowSpan) - uint64(g.NLoc)
		gBits, err := comm.Allreduce(ctx.Comm, local, comm.OpSum)
		if err != nil {
			return nil, err
		}
		e.gFoldBits = gBits
	}
	return e, nil
}

// reset readies the engine for the next root: no destination claimed, no
// steps counted.
func (e *grid2DEngine) reset() {
	clear(e.rowSeen)
	e.stats = obs.TraversalStats{}
}

// denseExpand decides — from the globally reduced frontier size every rank
// already holds — whether the column expand ships packed bits. Sparse ships
// 32 bits per frontier vertex; dense ships one bit per owned vertex.
func (e *grid2DEngine) denseExpand(gNf uint64) bool {
	switch e.pol {
	case core.TraversePush:
		return false
	case core.TraverseDense:
		return true
	}
	return 32*gNf > e.nGlobal
}

// denseFold decides the fold representation, reducing the round's claim
// count in adaptive mode (the forced modes spend no collective).
func (e *grid2DEngine) denseFold(ctx *core.Ctx, localClaims int) (bool, error) {
	switch e.pol {
	case core.TraversePush:
		return false, nil
	case core.TraverseDense:
		return true, nil
	}
	gc, err := comm.Allreduce(ctx.Comm, uint64(localClaims), comm.OpSum)
	if err != nil {
		return false, err
	}
	return 32*gc > e.gFoldBits, nil
}

// ensureWords returns zeroed packed-word staging of n words.
func (e *grid2DEngine) ensureWords(n int) []uint64 {
	if cap(e.words) < n {
		e.words = make([]uint64, n)
	}
	w := e.words[:n]
	for i := range w {
		w[i] = 0
	}
	return w
}

// ensureCounts returns zeroed per-peer count and cursor staging.
func (e *grid2DEngine) ensureCounts(p int) (counts, offs []int) {
	if cap(e.counts) < p {
		e.counts = make([]int, p)
		e.offs = make([]int, p)
	}
	counts, offs = e.counts[:p], e.offs[:p]
	for i := range counts {
		counts[i] = 0
	}
	return counts, offs
}

// expandColumn gathers every column member's owned frontier (owner lids)
// and returns the concatenated frontier translated to column-block ids.
func (e *grid2DEngine) expandColumn(ctx *core.Ctx, queue []uint32, dense bool) ([]uint32, error) {
	l := e.l
	col := l.Group.Col
	out := e.colIDs[:0]
	if dense {
		nw := par.BitmapWords(int(e.g.NLoc))
		words := e.ensureWords(nw)
		for _, v := range queue {
			words[v>>6] |= 1 << (v & 63)
		}
		all, counts, err := comm.Allgatherv(col, words)
		if err != nil {
			return nil, err
		}
		off := 0
		for k := 0; k < col.Size(); k++ {
			size := int(l.ColPeerBounds[k+1] - l.ColPeerBounds[k])
			if counts[k] != par.BitmapWords(size) {
				return nil, fmt.Errorf("analytics: 2d expand from column rank %d has %d words for a %d-vertex chunk", k, counts[k], size)
			}
			base := l.ColPeerBounds[k] - l.ColLo
			par.ForEachSetBit(all[off:off+counts[k]], size, func(i int) {
				out = append(out, base+uint32(i))
			})
			off += counts[k]
		}
		e.stats.DenseExchanges++
		e.stats.DenseBytes += uint64(nw) * 8
	} else {
		all, counts, err := comm.Allgatherv(col, queue)
		if err != nil {
			return nil, err
		}
		off := 0
		for k := 0; k < col.Size(); k++ {
			size := l.ColPeerBounds[k+1] - l.ColPeerBounds[k]
			base := l.ColPeerBounds[k] - l.ColLo
			for _, v := range all[off : off+counts[k]] {
				if v >= size {
					return nil, fmt.Errorf("analytics: 2d expand vertex %d outside column rank %d's %d-vertex chunk", v, k, size)
				}
				out = append(out, base+v)
			}
			off += counts[k]
		}
		e.stats.SparseExchanges++
		e.stats.SparseBytes += uint64(len(queue)) * 4
	}
	e.colIDs = out
	return out, nil
}

// scanClaims walks the selected grid CSRs from every column frontier vertex
// and returns the destinations (global ids) this rank newly claims, each at
// most once per run. The returned list aliases the engine's staging and is
// valid until the next scan.
func (e *grid2DEngine) scanClaims(ctx *core.Ctx, colIDs []uint32, dir Dir) []uint32 {
	l := e.l
	per := e.claimPer
	ctx.Pool.For(len(colIDs), func(lo, hi, tid int) {
		cl := per[tid]
		visit := func(gid uint32) {
			if testAndSet(e.rowSeen, uint64(l.RowIndexOf(gid))) {
				cl = append(cl, gid)
			}
		}
		for i := lo; i < hi; i++ {
			u := colIDs[i]
			if dir == Forward || dir == Und {
				for _, v := range l.FwdEdges[l.FwdIdx[u]:l.FwdIdx[u+1]] {
					visit(v)
				}
			}
			if dir == Backward || dir == Und {
				for _, v := range l.RevEdges[l.RevIdx[u]:l.RevIdx[u+1]] {
					visit(v)
				}
			}
		}
		per[tid] = cl
	})
	claims := e.claims[:0]
	for t := range per {
		claims = append(claims, per[t]...)
		per[t] = per[t][:0]
	}
	e.claims = claims
	return claims
}

// foldRow ships the claimed destinations to their owners along the grid row
// and returns the owned lids claimed by this row (multiplicity one per
// claiming rank, exactly the 1D exchange's multiset).
func (e *grid2DEngine) foldRow(ctx *core.Ctx, claims []uint32, dense bool) ([]uint32, error) {
	l := e.l
	row := l.Group.Row
	c := row.Size()
	nloc := e.g.NLoc
	if dense {
		// One chunk bitmap per row peer.
		wordCounts, wordOffs := e.ensureCounts(c)
		total := 0
		for k := 0; k < c; k++ {
			wordOffs[k] = total
			wordCounts[k] = par.BitmapWords(int(l.RowPeerHi[k] - l.RowPeerLo[k]))
			total += wordCounts[k]
		}
		words := e.ensureWords(total)
		for _, gid := range claims {
			k := l.RowPeerOf(gid)
			bit := gid - l.RowPeerLo[k]
			seg := words[wordOffs[k]:]
			seg[bit>>6] |= 1 << (bit & 63)
		}
		recv, recvCounts, err := comm.AlltoallvInto(row, words, wordCounts, e.recv64, e.recvCts2)
		if err != nil {
			return nil, err
		}
		e.recv64, e.recvCts2 = recv, recvCounts
		myW := par.BitmapWords(int(nloc))
		arrived := e.recv32[:0]
		off := 0
		for k := 0; k < c; k++ {
			if recvCounts[k] != myW {
				return nil, fmt.Errorf("analytics: 2d fold from row rank %d has %d words for a %d-vertex chunk", k, recvCounts[k], int(nloc))
			}
			par.ForEachSetBit(recv[off:off+myW], int(nloc), func(i int) {
				arrived = append(arrived, uint32(i))
			})
			off += myW
		}
		e.recv32 = arrived
		e.stats.DenseExchanges++
		e.stats.DenseBytes += uint64(total) * 8
		return arrived, nil
	}
	counts, offs := e.ensureCounts(c)
	for _, gid := range claims {
		counts[l.RowPeerOf(gid)]++
	}
	at := 0
	for k := 0; k < c; k++ {
		offs[k] = at
		at += counts[k]
	}
	if cap(e.send32) < at {
		e.send32 = make([]uint32, at)
	}
	send := e.send32[:at]
	for _, gid := range claims {
		k := l.RowPeerOf(gid)
		send[offs[k]] = gid - l.RowPeerLo[k]
		offs[k]++
	}
	recv, recvCounts, err := comm.AlltoallvInto(row, send, counts, e.recv32, e.recvCts)
	if err != nil {
		return nil, err
	}
	e.recv32, e.recvCts = recv, recvCounts
	for _, lid := range recv {
		if lid >= nloc {
			return nil, fmt.Errorf("analytics: 2d fold claim %d outside %d owned vertices", lid, nloc)
		}
	}
	e.stats.SparseExchanges++
	e.stats.SparseBytes += uint64(len(claims)) * 4
	return recv, nil
}

// run2D is run (root already range-checked) on a 2D checkerboard shard: per
// level, expand along the column, scan the grid block, fold along the row.
// The engine — and with it the one dense-fold width reduction — is built on
// the runner's first root. Levels are bit-identical to the 1D engine's in
// every traversal mode.
func (r *bfsRunner) run2D(ctx *core.Ctx, root uint32, dir Dir) (*BFSResult, error) {
	g := r.g
	l := g.Grid
	eng := r.grid
	if eng == nil {
		var err error
		if eng, err = newGrid2DEngine(ctx, g); err != nil {
			return nil, err
		}
		r.grid, r.status = eng, make([]int32, g.NLoc)
	}
	eng.reset()
	status := r.status
	for i := range status {
		status[i] = statusUnvisited
	}
	queue, next := r.queue[:0], r.next
	if root >= l.OwnLo && root < l.OwnHi {
		status[root-l.OwnLo] = statusPending
		queue = append(queue, root-l.OwnLo)
	}
	reached := uint64(0)
	level := int32(0)

	tr := ctx.Comm.Tracer()
	gNf, err := comm.Allreduce(ctx.Comm, uint64(len(queue)), comm.OpSum)
	if err != nil {
		return nil, err
	}
	for ; gNf != 0; level++ {
		mark := tr.Now()
		frontier := len(queue)
		for _, v := range queue {
			status[v] = level
		}
		reached += gNf

		colIDs, err := eng.expandColumn(ctx, queue, eng.denseExpand(gNf))
		if err != nil {
			return nil, err
		}
		claims := eng.scanClaims(ctx, colIDs, dir)
		foldDense, err := eng.denseFold(ctx, len(claims))
		if err != nil {
			return nil, err
		}
		arrived, err := eng.foldRow(ctx, claims, foldDense)
		if err != nil {
			return nil, err
		}
		next = next[:0]
		for _, lid := range arrived {
			// Owner-side dedup: several row peers may claim the same vertex
			// in one level (and a rank may re-claim a finalized one).
			if status[lid] == statusUnvisited {
				status[lid] = statusPending
				next = append(next, lid)
			}
		}
		queue, next = next, queue
		eng.stats.PushSteps++
		gNf, err = comm.Allreduce(ctx.Comm, uint64(len(queue)), comm.OpSum)
		if err != nil {
			return nil, err
		}
		tr.Span(SpanFrontierPush, mark, int64(frontier))
		tr.Span(SpanBFSLevel, mark, int64(frontier))
	}
	r.queue, r.next = queue, next
	return r.finish(reached, level, eng.stats), nil
}

// wcc2D computes weakly connected components on a 2D shard: the same
// Multistep scheme as the 1D path (BFS from the highest-degree vertex, then
// min-label coloring) with the coloring phase recast as message passing —
// changed colors expand along the column, each rank lowers per-destination
// candidates over its grid block, and the fold ships each destination's
// best candidate to its owner. The fixed point is the per-component minimum
// label, identical to the 1D Gauss-Seidel result.
func wcc2D(ctx *core.Ctx, g *core.Graph, multistep bool) (*WCCResult, error) {
	l := g.Grid
	var bfs *BFSResult
	var root uint32
	var err error
	if multistep {
		root, err = maxDegreeVertex(ctx, g)
		if err != nil {
			return nil, err
		}
		bfs, err = BFS(ctx, g, root, Und)
		if err != nil {
			return nil, err
		}
	} else {
		bfs = &BFSResult{Levels: make([]int32, g.NLoc)}
		for v := range bfs.Levels {
			bfs.Levels[v] = -1
		}
	}

	const claimed = ^uint32(0)
	colors := make([]uint32, g.NLoc)
	var frontier []uint64 // packed (owned lid)<<32 | color, changed last round
	for v := uint32(0); v < g.NLoc; v++ {
		if bfs.Levels[v] >= 0 {
			colors[v] = claimed
		} else {
			colors[v] = l.OwnLo + v
			frontier = append(frontier, uint64(v)<<32|uint64(colors[v]))
		}
	}

	// Per-destination candidate minima over the row span, reset lazily via
	// the touched list so steady-state rounds only pay for what they lower.
	rowBest := make([]uint32, l.RowSpan)
	for i := range rowBest {
		rowBest[i] = claimed
	}
	touched := make([]uint64, par.BitmapWords(int(l.RowSpan)))
	inNext := make([]uint64, par.BitmapWords(int(g.NLoc)))

	col, row := l.Group.Col, l.Group.Row
	tr := ctx.Comm.Tracer()
	counts := make([]int, row.Size())
	offs := make([]int, row.Size())
	var send, recv []uint64
	var recvCounts []int
	var colPairs []uint64
	var changedLids []uint32

	for round := int64(0); ; round++ {
		mark := tr.Now()

		// Expand the changed colors along the column.
		all, gcounts, err := comm.Allgatherv(col, frontier)
		if err != nil {
			return nil, err
		}
		colPairs = colPairs[:0]
		off := 0
		for k := 0; k < col.Size(); k++ {
			size := l.ColPeerBounds[k+1] - l.ColPeerBounds[k]
			base := l.ColPeerBounds[k] - l.ColLo
			for _, w := range all[off : off+gcounts[k]] {
				lid := uint32(w >> 32)
				if lid >= size {
					return nil, fmt.Errorf("analytics: 2d color expand vertex %d outside column rank %d's %d-vertex chunk", lid, k, size)
				}
				colPairs = append(colPairs, uint64(base+lid)<<32|(w&0xffffffff))
			}
			off += gcounts[k]
		}

		// Scan: lower every neighbor's candidate color over both CSRs.
		nt := ctx.Pool.Threads()
		per := make([][]uint32, nt)
		ctx.Pool.For(len(colPairs), func(lo, hi, tid int) {
			var tl []uint32
			visit := func(gid, cl uint32) {
				idx := l.RowIndexOf(gid)
				atomicMinU32(&rowBest[idx], cl)
				if testAndSet(touched, uint64(idx)) {
					tl = append(tl, gid)
				}
			}
			for i := lo; i < hi; i++ {
				u := uint32(colPairs[i] >> 32)
				cl := uint32(colPairs[i])
				for _, v := range l.FwdEdges[l.FwdIdx[u]:l.FwdIdx[u+1]] {
					visit(v, cl)
				}
				for _, v := range l.RevEdges[l.RevIdx[u]:l.RevIdx[u+1]] {
					visit(v, cl)
				}
			}
			per[tid] = tl
		})
		var touchedGids []uint32
		for t := 0; t < nt; t++ {
			touchedGids = append(touchedGids, per[t]...)
		}

		// Fold: each touched destination's best candidate to its owner.
		for i := range counts {
			counts[i] = 0
		}
		for _, gid := range touchedGids {
			counts[l.RowPeerOf(gid)]++
		}
		at := 0
		for k := range counts {
			offs[k] = at
			at += counts[k]
		}
		if cap(send) < at {
			send = make([]uint64, at)
		}
		send = send[:at]
		for _, gid := range touchedGids {
			k := l.RowPeerOf(gid)
			send[offs[k]] = uint64(gid-l.RowPeerLo[k])<<32 | uint64(rowBest[l.RowIndexOf(gid)])
			offs[k]++
		}
		recv, recvCounts, err = comm.AlltoallvInto(row, send, counts, recv, recvCounts)
		if err != nil {
			return nil, err
		}

		// Apply arrivals; owners of BFS-claimed vertices ignore candidates.
		changedLids = changedLids[:0]
		for _, w := range recv {
			lid := uint32(w >> 32)
			cand := uint32(w)
			if lid >= g.NLoc {
				return nil, fmt.Errorf("analytics: 2d color fold vertex %d outside %d owned vertices", lid, g.NLoc)
			}
			if colors[lid] != claimed && cand < colors[lid] {
				colors[lid] = cand
				if testAndSet(inNext, uint64(lid)) {
					changedLids = append(changedLids, lid)
				}
			}
		}
		frontier = frontier[:0]
		for _, lid := range changedLids {
			frontier = append(frontier, uint64(lid)<<32|uint64(colors[lid]))
			inNext[lid>>6] &^= 1 << (lid & 63)
		}
		// Reset the candidates the scan touched.
		for _, gid := range touchedGids {
			idx := l.RowIndexOf(gid)
			rowBest[idx] = claimed
			touched[idx>>6] &^= 1 << (idx & 63)
		}

		globalChanged, err := comm.Allreduce(ctx.Comm, uint64(len(changedLids)), comm.OpSum)
		if err != nil {
			return nil, err
		}
		tr.Span(SpanWCCColorRound, mark, round)
		if globalChanged == 0 {
			break
		}
	}

	labels := make([]uint32, g.NLoc)
	for v := uint32(0); v < g.NLoc; v++ {
		if bfs.Levels[v] >= 0 {
			labels[v] = root
		} else {
			labels[v] = colors[v]
		}
	}

	numComponents, err := countRepresentatives(ctx, g, labels)
	if err != nil {
		return nil, err
	}
	owned, err := aggregateLabelCounts(ctx, g, labels, nil)
	if err != nil {
		return nil, err
	}
	largestLbl, largestSize, _, err := largestLabel(ctx, owned)
	if err != nil {
		return nil, err
	}
	return &WCCResult{
		Labels:        labels,
		NumComponents: numComponents,
		LargestLabel:  largestLbl,
		LargestSize:   largestSize,
		BFSReached:    bfs.Reached,
		Traversal:     bfs.Traversal,
	}, nil
}
