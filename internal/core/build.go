package core

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/edge"
	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/partition"
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
//
// A counting pass computes each edge's owner once, keeps it for the fill,
// and counts per thread per destination. Destination d's segment then holds
// thread 0's pairs for d, then thread 1's, ..., each thread's in chunk
// order: exactly the chunk order, so the send buffer is the same at any
// thread count, and each thread fills its share through its own cursors.
func exchangeEdges(ctx *Ctx, chunk edge.List, pt partition.Partitioner, reversed bool) (edge.List, error) {
	p := ctx.Size()
	owner := make([]int32, chunk.Len())
	first := 0 // the word of a raw edge that routes it
	if reversed {
		first = 1
	}
	cursors := make([][]uint64, ctx.Pool.Threads())
	ctx.Pool.For(chunk.Len(), func(lo, hi, tid int) {
		counts := make([]uint64, p)
		for i := lo; i < hi; i++ {
			d := pt.Owner(chunk[2*i+first])
			owner[i] = int32(d)
			counts[d]++
		}
		cursors[tid] = counts
	})
	wordCounts := make([]int, p)
	total := uint64(0)
	for d := range wordCounts {
		start := total
		for _, c := range cursors {
			if c != nil {
				c[d], total = total, total+c[d]
			}
		}
		wordCounts[d] = int(2 * (total - start))
	}
	sendBuf := make([]uint32, 2*total)
	ctx.Pool.For(chunk.Len(), func(lo, hi, tid int) {
		c := cursors[tid]
		for i := lo; i < hi; i++ {
			at := 2 * c[owner[i]]
			c[owner[i]]++
			sendBuf[at], sendBuf[at+1] = chunk[2*i+first], chunk[2*i+1-first]
		}
	})
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
// (owned destination, source) pairs. Both are in global ids; convert
// rewrites them to local ids in place.
func convert(ctx *Ctx, outPairs, inPairs edge.List, pt partition.Partitioner, n uint32, m uint64) *Graph {
	rank := ctx.Rank()

	// Relabel through a dense table lid[gid] (4n bytes, dropped on return):
	// owned vertices take [0, nloc) in ascending global order, ghosts the
	// next ids in order of first appearance as a pair's second id, out
	// pairs before in pairs. Every id indexes it in bounds: the Read stage
	// checked this rank's ids against n and checkShuffle the peers'.
	unmap := slices.Clip(pt.Owned(rank)) // appending ghosts must not write into the partitioner's slice
	nloc := uint32(len(unmap))
	lid := make([]uint32, n)
	for i := range lid {
		lid[i] = InvalidLocal
	}
	for i, gid := range unmap {
		lid[gid] = uint32(i)
	}
	for _, pairs := range [2]edge.List{outPairs, inPairs} {
		for i := 1; i < len(pairs); i += 2 {
			if w := pairs[i]; lid[w] == InvalidLocal {
				lid[w] = uint32(len(unmap))
				unmap = append(unmap, w)
			}
		}
	}
	ngst := uint32(len(unmap)) - nloc

	g := &Graph{
		NGlobal: n,
		MGlobal: m,
		NLoc:    nloc,
		NGst:    ngst,
		Unmap:   unmap,
		Map:     mapOf(unmap),
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

	g.OutIdx, g.OutEdges = buildCSR(ctx, lid, nloc, outPairs)
	g.InIdx, g.InEdges = buildCSR(ctx, lid, nloc, inPairs)
	return g
}

// buildCSR rewrites (owned vertex, neighbor) global-id pairs to local ids
// through lid and counting-sorts them into a CSR over owned vertices. Each
// of k threads counts its contiguous share of the pairs per row; a row
// then takes thread 0's entries, then thread 1's, ..., each in pair order,
// so every row lists its neighbors in arrival order at any thread count.
// k stops at one row table per four pairs a row holds on average, which
// keeps the tables (4 bytes per row each) under an eighth of the pairs'
// bytes once there is more than one.
func buildCSR(ctx *Ctx, lid []uint32, nloc uint32, pairs edge.List) ([]uint64, []uint32) {
	nPairs := pairs.Len()
	k := max(1, min(ctx.Pool.Threads(), nPairs/(4*int(nloc)+1)))
	split := func(body func(lo, hi, tid int)) {
		ctx.Pool.Run(func(tid int) {
			if tid < k {
				lo, hi := par.ThreadRange(nPairs, k, tid)
				body(lo, hi, tid)
			}
		})
	}
	cursors := make([][]uint32, k) // per-row counts, then in-row write positions
	split(func(lo, hi, tid int) {
		counts := make([]uint32, nloc)
		for i := lo; i < hi; i++ {
			u := lid[pairs[2*i]]
			pairs[2*i], pairs[2*i+1] = u, lid[pairs[2*i+1]]
			counts[u]++
		}
		cursors[tid] = counts
	})
	idx := make([]uint64, nloc+1)
	for v := range nloc {
		at := uint32(0) // rows are counted in 32 bits: a degree stays below 2^32
		for _, c := range cursors {
			c[v], at = at, at+c[v]
		}
		idx[v+1] = idx[v] + uint64(at)
	}
	edges := make([]uint32, nPairs)
	split(func(lo, hi, tid int) {
		c := cursors[tid]
		for i := lo; i < hi; i++ {
			u := pairs[2*i]
			edges[idx[u]+uint64(c[u])] = pairs[2*i+1]
			c[u]++
		}
	})
	return idx, edges
}
