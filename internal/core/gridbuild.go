package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/edge"
	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/partition"
)

// GridLayout is the 2D checkerboard shard structure (Buluç & Madduri,
// arXiv:1104.4518). The p = r·c ranks form an r×c grid; rank g sits at
// grid position (g/c, g%c). The vertex space is cut into p near-equal
// chunks and the rank at (i, j) owns chunk j·r+i, so the chunks owned by
// grid column j form one contiguous "column block". Edge (u, v) is stored
// at grid position (rowOf(owner(v)), colOf(owner(u))): a rank's forward
// CSR covers sources in its column block and destinations owned by its
// grid row. Traversal then exchanges over sub-communicators — frontier
// expand is an Allgatherv along the column (r peers), discovered-vertex
// fold is an Alltoallv along the row (c peers) — touching O(r+c) ≈ O(√p)
// peers per step instead of the 1D layout's O(p).
type GridLayout struct {
	// Group carries this rank's row and column sub-communicators.
	Group *comm.Group
	// Pt is the grid partitioner (the same object as Graph.Part).
	Pt *partition.Grid
	// Row, Col are this rank's grid coordinates.
	Row, Col int

	// OwnLo, OwnHi is the owned chunk: global id = OwnLo + local id.
	OwnLo, OwnHi uint32
	// ColLo, ColHi is the contiguous column block of sources this rank
	// holds edges for; column-block id = global id - ColLo.
	ColLo, ColHi uint32

	// FwdIdx/FwdEdges is the CSR of this grid block's forward edges:
	// sources indexed by column-block id over [0, ColHi-ColLo),
	// destinations as global ids (owned by this grid row).
	FwdIdx   []uint64
	FwdEdges []uint32
	// RevIdx/RevEdges is the CSR of the flipped edges (in-edges of the
	// column block), same index convention.
	RevIdx   []uint64
	RevEdges []uint32

	// ColPeerBounds are the r+1 ascending chunk boundaries of the column
	// block: column sub-rank k owns [ColPeerBounds[k], ColPeerBounds[k+1]).
	ColPeerBounds []uint32
	// RowPeerLo/RowPeerHi are the owned chunk bounds of each row member,
	// indexed by row sub-rank (disjoint, ascending, not contiguous).
	RowPeerLo, RowPeerHi []uint32
	// RowOff is the exclusive prefix of row-member chunk sizes; RowSpan is
	// their total. Together they give every destination this block can
	// touch a compact row-block index: RowOff[k] + (gid - RowPeerLo[k]).
	RowOff  []uint32
	RowSpan uint32
}

// ColN returns the column-block width (the forward/reverse CSR source
// count).
func (l *GridLayout) ColN() uint32 { return l.ColHi - l.ColLo }

// RowPeerOf returns the row sub-rank owning destination gid. Destinations
// of this grid block are owned by this grid row by construction; the owner
// sits at grid column chunk/r, which is also its row sub-rank.
func (l *GridLayout) RowPeerOf(gid uint32) int {
	return int(l.Pt.ChunkOf(gid)) / l.Pt.Rows()
}

// RowIndexOf returns the compact row-block index of destination gid.
func (l *GridLayout) RowIndexOf(gid uint32) uint32 {
	k := l.RowPeerOf(gid)
	return l.RowOff[k] + (gid - l.RowPeerLo[k])
}

// Desc returns the grid descriptor every rank must agree on.
func (l *GridLayout) Desc() *comm.GridDesc {
	p := l.Pt.NumRanks()
	chunks := make([]uint32, p+1)
	for k := 0; k < p; k++ {
		lo, _ := l.Pt.ChunkBounds(uint32(k))
		chunks[k] = lo
	}
	chunks[p] = l.Pt.NumVertices()
	return &comm.GridDesc{
		Rows:   uint32(l.Pt.Rows()),
		Cols:   uint32(l.Pt.Cols()),
		N:      l.Pt.NumVertices(),
		Chunks: chunks,
	}
}

// buildGrid constructs this rank's 2D checkerboard shard. Called
// collectively by all ranks with identical src and partitioner, like Build.
func buildGrid(ctx *Ctx, src EdgeSource, gp *partition.Grid) (*Graph, Timings, error) {
	var tm Timings
	n := gp.NumVertices()
	m := src.NumEdges()
	p := ctx.Size()
	rank := ctx.Rank()

	if gp.NumRanks() != p {
		return nil, tm, fmt.Errorf("core: grid partitioner for %d ranks on a group of %d", gp.NumRanks(), p)
	}
	if err := gp.Validate(); err != nil {
		return nil, tm, err
	}
	r, c := gp.Rows(), gp.Cols()

	grid := &GridLayout{Pt: gp, Row: gp.RowOf(rank), Col: gp.ColOf(rank)}
	grid.OwnLo, grid.OwnHi = gp.OwnedBounds(rank)
	grid.ColLo, grid.ColHi = gp.ColBounds(grid.Col)
	grid.ColPeerBounds = make([]uint32, r+1)
	for ii := 0; ii < r; ii++ {
		lo, hi := gp.OwnedBounds(gp.RankAt(ii, grid.Col))
		grid.ColPeerBounds[ii] = lo
		grid.ColPeerBounds[ii+1] = hi
	}
	grid.RowPeerLo = make([]uint32, c)
	grid.RowPeerHi = make([]uint32, c)
	grid.RowOff = make([]uint32, c)
	for jj := 0; jj < c; jj++ {
		lo, hi := gp.OwnedBounds(gp.RankAt(grid.Row, jj))
		grid.RowPeerLo[jj], grid.RowPeerHi[jj] = lo, hi
		grid.RowOff[jj] = grid.RowSpan
		grid.RowSpan += hi - lo
	}

	group, err := comm.NewGridGroup(ctx.Comm, r, c)
	if err != nil {
		return nil, tm, err
	}
	grid.Group = group

	// Every rank must be building the same grid: rank 0 broadcasts its
	// descriptor and each rank verifies it against its own, so a group
	// launched with drifting partition flags fails fast here instead of
	// exchanging misrouted edges.
	mine := grid.Desc().Encode()
	theirs := append([]byte(nil), mine...)
	theirs, err = comm.Bcast(ctx.Comm, theirs, 0)
	if err != nil {
		return nil, tm, err
	}
	var descErr error
	if dec, err := comm.DecodeGridDesc(theirs); err != nil {
		descErr = fmt.Errorf("core: rank 0 grid descriptor: %w", err)
	} else if local, err := comm.DecodeGridDesc(mine); err != nil {
		descErr = fmt.Errorf("core: local grid descriptor: %w", err)
	} else if !dec.Equal(local) {
		descErr = fmt.Errorf("core: rank %d grid %dx%d over %d vertices disagrees with rank 0's %dx%d over %d",
			rank, local.Rows, local.Cols, local.N, dec.Rows, dec.Cols, dec.N)
	}
	if err := collectiveErr(ctx, descErr); err != nil {
		return nil, tm, err
	}

	// Stage 1 — Read: identical to the 1D build.
	start := time.Now()
	lo, hi := gen.ChunkRange(m, rank, p)
	chunk, readErr := src.ReadChunk(lo, hi)
	if readErr == nil {
		var bad atomic.Uint32
		ctx.Pool.For(len(chunk), func(clo, chi, tid int) {
			for i := clo; i < chi; i++ {
				if chunk[i] >= n {
					bad.Store(chunk[i] + 1)
				}
			}
		})
		if b := bad.Load(); b != 0 {
			readErr = fmt.Errorf("core: edge endpoint %d outside vertex count %d", b-1, n)
		}
	}
	if err := collectiveErr(ctx, readErr); err != nil {
		return nil, tm, err
	}
	if err := ctx.Comm.Barrier(); err != nil {
		return nil, tm, err
	}
	tm.Read = time.Since(start)

	// Stage 2 — Exchange: two edge shuffles as in the 1D build, but routed
	// to grid positions: edge (u, v) to (rowOf(owner(v)), colOf(owner(u))),
	// and the flipped copy (v, u) to (rowOf(owner(u)), colOf(owner(v))).
	start = time.Now()
	route := func(src, dst uint32) int {
		return gp.RankAt(gp.RowOf(gp.Owner(dst)), gp.ColOf(gp.Owner(src)))
	}
	fwdPairs, err := exchangeEdgesTo(ctx, chunk, route, false)
	if err != nil {
		return nil, tm, err
	}
	revPairs, err := exchangeEdgesTo(ctx, chunk, route, true)
	if err != nil {
		return nil, tm, err
	}
	chunk = nil
	if err := ctx.Comm.Barrier(); err != nil {
		return nil, tm, err
	}
	tm.Exchange = time.Since(start)

	// Stage 3 — Convert: grid-block CSRs over column-block source ids,
	// then a column reduction of the per-source block degrees so every
	// owner knows its vertices' true global degrees.
	start = time.Now()
	g, convErr := convertGrid(ctx, grid, fwdPairs, revPairs, gp, n, m)
	if err := collectiveErr(ctx, convErr); err != nil {
		return nil, tm, err
	}
	if err := ctx.Comm.Barrier(); err != nil {
		return nil, tm, err
	}
	tm.Convert = time.Since(start)

	// Global sanity: each shuffle must have landed every edge exactly once.
	mFwd, err := comm.Allreduce(ctx.Comm, uint64(len(grid.FwdEdges)), comm.OpSum)
	if err != nil {
		return nil, tm, err
	}
	mRev, err := comm.Allreduce(ctx.Comm, uint64(len(grid.RevEdges)), comm.OpSum)
	if err != nil {
		return nil, tm, err
	}
	if mFwd != m || mRev != m {
		return nil, tm, fmt.Errorf("core: grid exchanged %d fwd / %d rev edges, want %d", mFwd, mRev, m)
	}
	return g, tm, nil
}

// exchangeEdgesTo shuffles the rank's raw chunk under an arbitrary routing
// function over the (possibly flipped) pair. It is exchangeEdges with the
// destination decoupled from single-endpoint ownership, as the 2D layout
// routes on both endpoints.
func exchangeEdgesTo(ctx *Ctx, chunk edge.List, route func(src, dst uint32) int, reversed bool) (edge.List, error) {
	p := ctx.Size()
	nEdges := chunk.Len()
	nt := ctx.Pool.Threads()

	dest := func(i int) int {
		u, v := chunk.Src(i), chunk.Dst(i)
		if reversed {
			u, v = v, u
		}
		return route(u, v)
	}

	perThread := make([][]uint64, nt)
	for t := range perThread {
		perThread[t] = make([]uint64, p)
	}
	ctx.Pool.For(nEdges, func(lo, hi, tid int) {
		counts := perThread[tid]
		for i := lo; i < hi; i++ {
			counts[dest(i)]++
		}
	})
	counts := make([]uint64, p)
	for _, tc := range perThread {
		for d, c := range tc {
			counts[d] += c
		}
	}
	offsets, totalPairs := par.ExclusivePrefixSum(counts)

	sendBuf := make([]uint32, 2*totalPairs)
	type pair struct{ a, b uint32 }
	shared := par.NewShared(offsets, func(dst int, base uint64, items []pair) {
		at := 2 * base
		for _, it := range items {
			sendBuf[at] = it.a
			sendBuf[at+1] = it.b
			at += 2
		}
	})
	ctx.Pool.Run(func(tid int) {
		lo, hi := par.ThreadRange(nEdges, nt, tid)
		buf := shared.Buf(512)
		for i := lo; i < hi; i++ {
			u, v := chunk.Src(i), chunk.Dst(i)
			if reversed {
				u, v = v, u
			}
			buf.Push(route(u, v), pair{u, v})
		}
		buf.Flush()
	})

	wordCounts := make([]int, p)
	for d, c := range counts {
		wordCounts[d] = int(2 * c)
	}
	recv, _, err := comm.Alltoallv(ctx.Comm, sendBuf, wordCounts)
	if err != nil {
		return nil, err
	}
	return edge.List(recv), nil
}

// convertGrid builds the grid-block CSRs and the base per-rank Graph. The
// base graph carries only owned-vertex state: Unmap/Map over the owned
// chunk, no ghosts, and OutIdx/InIdx holding the column-reduced true
// degrees (with nil edge arrays — edges live in the grid CSRs).
func convertGrid(ctx *Ctx, grid *GridLayout, fwdPairs, revPairs edge.List, gp *partition.Grid, n uint32, m uint64) (*Graph, error) {
	rank := ctx.Rank()
	nloc := grid.OwnHi - grid.OwnLo

	var err error
	grid.FwdIdx, grid.FwdEdges, err = buildGridCSR(ctx, grid, fwdPairs)
	if err != nil {
		return nil, fmt.Errorf("core: fwd grid CSR: %w", err)
	}
	grid.RevIdx, grid.RevEdges, err = buildGridCSR(ctx, grid, revPairs)
	if err != nil {
		return nil, fmt.Errorf("core: rev grid CSR: %w", err)
	}

	// Column-reduce the block degrees: each column member holds a slice of
	// every column-block vertex's edges, so the sum over the column is the
	// true global degree. Fused into one reduction (out degrees then in).
	colN := int(grid.ColN())
	deg := make([]uint64, 2*colN)
	for v := 0; v < colN; v++ {
		deg[v] = grid.FwdIdx[v+1] - grid.FwdIdx[v]
		deg[colN+v] = grid.RevIdx[v+1] - grid.RevIdx[v]
	}
	deg, err = comm.AllreduceSlice(grid.Group.Col, deg, comm.OpSum)
	if err != nil {
		return nil, err
	}

	g := &Graph{
		NGlobal: n,
		MGlobal: m,
		NLoc:    nloc,
		NGst:    0,
		Unmap:   make([]uint32, nloc),
		Part:    gp,
		Grid:    grid,
		rank:    rank,
	}
	for i := range nloc {
		g.Unmap[i] = grid.OwnLo + i
	}
	g.Map = mapOf(g.Unmap)
	ownOff := int(grid.OwnLo - grid.ColLo)
	g.OutIdx = make([]uint64, nloc+1)
	g.InIdx = make([]uint64, nloc+1)
	for i := 0; i < int(nloc); i++ {
		g.OutIdx[i+1] = g.OutIdx[i] + deg[ownOff+i]
		g.InIdx[i+1] = g.InIdx[i] + deg[colN+ownOff+i]
	}
	return g, nil
}

// buildGridCSR turns (column-block source, destination) global-id pairs
// into a CSR over column-block ids, verifying every pair actually belongs
// to this grid position.
func buildGridCSR(ctx *Ctx, grid *GridLayout, pairs edge.List) ([]uint64, []uint32, error) {
	colN := grid.ColN()
	nPairs := pairs.Len()

	deg := make([]uint32, colN)
	var misrouted atomic.Uint64
	var misflag atomic.Uint32
	ctx.Pool.For(nPairs, func(lo, hi, tid int) {
		for i := lo; i < hi; i++ {
			u, v := pairs.Src(i), pairs.Dst(i)
			if u < grid.ColLo || u >= grid.ColHi || grid.Pt.RowOf(grid.Pt.Owner(v)) != grid.Row {
				misrouted.Store(uint64(u)<<32 | uint64(v))
				misflag.Store(1)
				return
			}
			atomic.AddUint32(&deg[u-grid.ColLo], 1)
		}
	})
	if misflag.Load() != 0 {
		mr := misrouted.Load()
		return nil, nil, fmt.Errorf("core: edge (%d, %d) arrived at grid position (%d, %d)",
			uint32(mr>>32), uint32(mr), grid.Row, grid.Col)
	}

	deg64 := make([]uint64, colN)
	for i, d := range deg {
		deg64[i] = uint64(d)
	}
	idx, total := ctx.Pool.PrefixSumParallel(deg64)
	edges := make([]uint32, total)
	cursor := make([]uint64, colN)
	copy(cursor, idx[:colN])
	ctx.Pool.For(nPairs, func(lo, hi, tid int) {
		for i := lo; i < hi; i++ {
			u := pairs.Src(i) - grid.ColLo
			pos := atomic.AddUint64(&cursor[u], 1) - 1
			edges[pos] = pairs.Dst(i)
		}
	})
	return idx, edges, nil
}
