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
	"repro/internal/vmap"
)

// Timings records the per-rank duration of the three construction stages
// reported in the paper's Table III: Read (parallel ingestion), Exchange
// (the two Alltoallv edge shuffles), and Convert (local CSR construction,
// the paper's "LConv"). Stage boundaries are globally synchronized with
// barriers so every rank's stages cover the same wall-clock intervals.
type Timings struct {
	Read     time.Duration
	Exchange time.Duration
	Convert  time.Duration
}

// Total returns the end-to-end construction time.
func (t Timings) Total() time.Duration { return t.Read + t.Exchange + t.Convert }

// collectiveErr agrees group-wide whether any rank failed a local stage.
// Every rank must call it at the same point; afterwards either all ranks
// proceed or all ranks return an error (their own, or a placeholder naming
// the remote failure).
func collectiveErr(ctx *Ctx, local error) error {
	flag := uint8(0)
	if local != nil {
		flag = 1
	}
	any, err := comm.Allreduce(ctx.Comm, flag, comm.OpMax)
	if err != nil {
		return err
	}
	if local != nil {
		return local
	}
	if any != 0 {
		return fmt.Errorf("core: collective stage failed on another rank")
	}
	return nil
}

// Build constructs this rank's shard of the distributed graph from a raw
// edge source under the given partitioner. It must be called collectively
// by all ranks with identical src and an identically configured pt.
func Build(ctx *Ctx, src EdgeSource, pt partition.Partitioner) (*Graph, Timings, error) {
	if gp, ok := pt.(*partition.Grid); ok {
		return buildGrid(ctx, src, gp)
	}
	var tm Timings
	n := pt.NumVertices()
	m := src.NumEdges()
	p := ctx.Size()
	rank := ctx.Rank()

	if err := ctx.Comm.Barrier(); err != nil {
		return nil, tm, err
	}

	// Stage 1 — Read: each task ingests a contiguous chunk of roughly m/p
	// edges (§III-A). Read and validation failures are agreed collectively
	// so that a bad chunk on one rank fails the whole group instead of
	// stranding the others at the next synchronization point.
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

	// Stage 2 — Exchange: redistribute edges so each task holds all
	// out-edges of its owned vertices, then reverse and redistribute again
	// for in-edges.
	start = time.Now()
	outPairs, err := exchangeEdges(ctx, chunk, pt, false)
	if err != nil {
		return nil, tm, err
	}
	inPairs, err := exchangeEdges(ctx, chunk, pt, true)
	if err != nil {
		return nil, tm, err
	}
	chunk = nil // the raw chunk is dead; conversion is the memory peak
	if err := ctx.Comm.Barrier(); err != nil {
		return nil, tm, err
	}
	tm.Exchange = time.Since(start)

	// Stage 3 — Convert: relabel and build the task-local CSRs. The
	// shuffles delivered only pairs whose first endpoint is owned here, so
	// conversion cannot fail.
	start = time.Now()
	g := convert(ctx, outPairs, inPairs, pt, n, m)
	if err := ctx.Comm.Barrier(); err != nil {
		return nil, tm, err
	}
	tm.Convert = time.Since(start)

	// Global sanity: every edge must have landed exactly once in each CSR.
	mOut, err := comm.Allreduce(ctx.Comm, g.MOut(), comm.OpSum)
	if err != nil {
		return nil, tm, err
	}
	mIn, err := comm.Allreduce(ctx.Comm, g.MIn(), comm.OpSum)
	if err != nil {
		return nil, tm, err
	}
	if mOut != m || mIn != m {
		return nil, tm, fmt.Errorf("core: exchanged %d out / %d in edges, want %d", mOut, mIn, m)
	}
	return g, tm, nil
}

// exchangeEdges shuffles the rank's raw chunk so that each edge lands on
// the rank owning its source (or its destination when reversed is set, with
// the pair flipped so the owned endpoint comes first). The returned flat
// pair list is this rank's share.
func exchangeEdges(ctx *Ctx, chunk edge.List, pt partition.Partitioner, reversed bool) (edge.List, error) {
	p := ctx.Size()
	nEdges := chunk.Len()
	nt := ctx.Pool.Threads()

	key := func(i int) uint32 {
		if reversed {
			return chunk.Dst(i)
		}
		return chunk.Src(i)
	}

	// Counting pass: per-thread per-destination counts, then reduce.
	perThread := make([][]uint64, nt)
	for t := range perThread {
		perThread[t] = make([]uint64, p)
	}
	ctx.Pool.For(nEdges, func(lo, hi, tid int) {
		counts := perThread[tid]
		for i := lo; i < hi; i++ {
			counts[pt.Owner(key(i))]++
		}
	})
	counts := make([]uint64, p)
	for _, tc := range perThread {
		for d, c := range tc {
			counts[d] += c
		}
	}
	offsets, totalPairs := par.ExclusivePrefixSum(counts)

	// Fill pass via thread-local queues (Algorithm 3): offsets are in
	// pairs; each pair scatters as two words.
	sendBuf := make([]uint32, 2*totalPairs)
	type pair struct{ a, b uint32 }
	shared := par.NewShared(offsets, func(dest int, base uint64, items []pair) {
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
			buf.Push(pt.Owner(u), pair{u, v})
		}
		buf.Flush()
	})

	wordCounts := make([]int, p)
	for d, c := range counts {
		wordCounts[d] = int(2 * c)
	}
	recv, recvCounts, err := comm.Alltoallv(ctx.Comm, sendBuf, wordCounts)
	if err != nil {
		return nil, err
	}
	if err := checkShuffle(ctx, recv, recvCounts, pt); err != nil {
		return nil, err
	}
	return edge.List(recv), nil
}

// checkShuffle validates what the peers' shuffle segments delivered before
// conversion trusts it: each segment holds whole pairs, both ids of every
// pair name vertices of the graph, and the first id, the endpoint the pair
// was routed by, is owned here. A segment that fails is a corrupt message
// from its sender. The cost is a compare per word and an owner lookup per
// pair; this rank's own segment is left unchecked, since it routed it.
func checkShuffle(ctx *Ctx, recv []uint32, recvCounts []int, pt partition.Partitioner) error {
	n, rank := pt.NumVertices(), ctx.Rank()
	off := 0
	for r, cnt := range recvCounts {
		seg := recv[off : off+cnt]
		off += cnt
		if r == rank {
			continue
		}
		if cnt%2 != 0 {
			return corruptFrom(ctx, r, "core: edge shuffle segment of %d words from rank %d splits a pair", cnt, r)
		}
		var bad atomic.Uint64 // 1 + the index of a failing pair
		ctx.Pool.For(cnt/2, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				if u := seg[2*i]; u >= n || seg[2*i+1] >= n || pt.Owner(u) != rank {
					bad.Store(uint64(i) + 1)
					return
				}
			}
		})
		if i := bad.Load(); i != 0 {
			u, v := seg[2*i-2], seg[2*i-1]
			return corruptFrom(ctx, r, "core: edge shuffle pair (%d, %d) from rank %d leaves the %d-vertex graph or starts at a vertex not owned here", u, v, r, n)
		}
	}
	return nil
}

// convert builds the Table II structures from the exchanged pair lists.
// outPairs holds (owned source, destination) pairs; inPairs holds
// (owned destination, source) pairs. Both are in global ids.
func convert(ctx *Ctx, outPairs, inPairs edge.List, pt partition.Partitioner, n uint32, m uint64) *Graph {
	rank := ctx.Rank()

	owned := pt.Owned(rank)
	nloc := uint32(len(owned))

	// Relabel owned vertices to [0, nloc) in ascending global order, then
	// discover ghosts in order of first appearance.
	vm := vmap.New(int(nloc) * 2)
	unmap := make([]uint32, nloc, nloc+nloc/4+16)
	for i, gid := range owned {
		vm.Put(gid, uint32(i))
		unmap[i] = gid
	}
	discover := func(pairs edge.List) {
		for i := 0; i < pairs.Len(); i++ {
			w := pairs.Dst(i)
			if _, inserted := vm.PutIfAbsent(w, uint32(len(unmap))); inserted {
				unmap = append(unmap, w)
			}
		}
	}
	discover(outPairs)
	discover(inPairs)
	ngst := uint32(len(unmap)) - nloc

	g := &Graph{
		NGlobal: n,
		MGlobal: m,
		NLoc:    nloc,
		NGst:    ngst,
		Unmap:   unmap,
		Map:     vm,
		Part:    pt,
		rank:    rank,
	}

	// Ghost owners (the paper's tasks array).
	g.GhostOwner = make([]int32, ngst)
	ctx.Pool.For(int(ngst), func(lo, hi, tid int) {
		for i := lo; i < hi; i++ {
			g.GhostOwner[i] = int32(pt.Owner(unmap[nloc+uint32(i)]))
		}
	})

	g.OutIdx, g.OutEdges = buildCSR(ctx, g, outPairs)
	g.InIdx, g.InEdges = buildCSR(ctx, g, inPairs)
	return g
}

// buildCSR turns (owned vertex, neighbor) global-id pairs into a local-id
// CSR over owned vertices.
func buildCSR(ctx *Ctx, g *Graph, pairs edge.List) ([]uint64, []uint32) {
	nloc := g.NLoc
	nPairs := pairs.Len()

	// Translate to local ids in place (both endpoints are registered) and
	// count per-vertex degrees with one atomic add per edge.
	deg := make([]uint32, nloc)
	ctx.Pool.For(nPairs, func(lo, hi, tid int) {
		for i := lo; i < hi; i++ {
			src := g.Map.MustGet(pairs.Src(i))
			dst := g.Map.MustGet(pairs.Dst(i))
			pairs[2*i] = src
			pairs[2*i+1] = dst
			atomic.AddUint32(&deg[src], 1)
		}
	})

	deg64 := make([]uint64, nloc)
	for i, d := range deg {
		deg64[i] = uint64(d)
	}
	idx, total := ctx.Pool.PrefixSumParallel(deg64)
	edges := make([]uint32, total)

	// Scatter with per-vertex atomic cursors.
	cursor := make([]uint64, nloc)
	copy(cursor, idx[:nloc])
	ctx.Pool.For(nPairs, func(lo, hi, tid int) {
		for i := lo; i < hi; i++ {
			src := pairs.Src(i)
			pos := atomic.AddUint64(&cursor[src], 1) - 1
			edges[pos] = pairs.Dst(i)
		}
	})
	return idx, edges
}
