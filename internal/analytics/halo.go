// Package analytics implements the paper's six graph analytics on the
// distributed graph of the core package, in the paper's two algorithmic
// classes:
//
//   - PageRank-like (§III-D1): every vertex propagates a per-vertex value to
//     its neighbors every iteration. PageRank and Label Propagation refresh
//     every ghost copy each iteration through the retained-queue Halo in
//     this file; the colorings of WCC/SCC/k-core ship only the labels that
//     improved, as claims on the same halo's slots (propagate.go).
//   - BFS-like (§III-D2): a sparse frontier expands over adjacency lists;
//     per-vertex updates happen at the owning rank. BFS, the traversal
//     phases of WCC/SCC and Harmonic Centrality run on the frontier
//     machinery in bfs.go; exact k-core, the approximate k-core's
//     threshold levels and SCC's trim are one peel that ships aggregated
//     degree counts on the claim round of bucket.go (propagate.go).
//
// All functions must be called collectively by every rank of the graph's
// group, like MPI routines.
package analytics

import (
	"fmt"
	"math/bits"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/par"
)

// Halo is the paper's retained send/receive queues for PageRank-like
// phases. Building it costs one early-exit pass over local edges plus one
// global-id exchange; afterwards every iteration refreshes all ghost copies
// with a single value-only Alltoallv — the paper's two queue optimizations
// (halve traffic by resending only values; never rebuild the queues).
type Halo struct {
	// g is the shard the queues were derived from; a retained halo is only
	// valid against exactly that graph.
	g *core.Graph
	// sendVerts lists the owned local ids whose value must be shipped,
	// grouped by destination rank; sendCounts are the per-rank group
	// sizes. A vertex appears once per rank that needs it.
	sendVerts  []uint32
	sendCounts []int
	// recvLids lists the ghost local ids that incoming values update, in
	// exactly the order values arrive (the paper's vRecv after its one-time
	// global-to-local conversion).
	recvLids []uint32
	// recvSegs are the per-source-rank segment sizes of recvLids, retained
	// from the one-time global-id exchange: the dense bitmap exchange packs
	// and unpacks bit segments against exactly this geometry, and the
	// reverse (ghost-to-owner) exchange uses it as its send counts.
	recvSegs []int

	// Retained exchange scratch: the send/recv staging reused by every
	// Exchange so the steady-state iteration allocates nothing. Halo is not
	// generic and a retained halo is driven with float64 (PageRank) and
	// uint64/uint32 (WCC, k-core, SSSP) in turn, so the staging is one
	// word-aligned buffer per direction that comm.ScratchAs views as the
	// element type of the call — a type change re-warms nothing.
	sendScratch []uint64
	recvScratch []uint64
	recvCounts  []int

	// geom is the frontier engine's packed-segment geometry over these
	// queues, derived on first dense/pull use and retained with them.
	geom *haloGeom
}

// haloGeom is the bit-segment geometry of a DirsBoth halo: where each
// peer's packed segment starts in the forward (owner-to-ghost) and reverse
// (ghost-to-owner) bitmap exchanges, and which halo slot each ghost
// occupies.
type haloGeom struct {
	sendWordOffs []int // per-dest word offsets of forward bit segments
	sendWords    int
	recvWordOffs []int // per-source word offsets of reverse bit segments
	recvWords    int
	recvLidOff   []int   // per-source element offsets into recvLids
	sendVertOff  []int   // per-dest element offsets into sendVerts
	ghostSlot    []int32 // ghost lid - NLoc -> slot in its owner's segment of recvLids
}

// geometry returns the halo's packed-segment geometry, deriving it on
// first use. Only a DirsBoth halo has one: every ghost must own a slot.
func (h *Halo) geometry() (*haloGeom, error) {
	if h.geom != nil {
		return h.geom, nil
	}
	g := h.g
	if len(h.recvLids) != int(g.NGst) {
		return nil, fmt.Errorf("analytics: frontier engine needs a DirsBoth halo covering all %d ghosts, got %d slots", g.NGst, len(h.recvLids))
	}
	gm := &haloGeom{}
	gm.sendWordOffs, gm.sendWords = comm.BitSegmentOffsets(h.sendCounts)
	gm.recvWordOffs, gm.recvWords = comm.BitSegmentOffsets(h.recvSegs)
	p := len(h.sendCounts)
	gm.recvLidOff = make([]int, p)
	gm.sendVertOff = make([]int, p)
	gm.ghostSlot = make([]int32, g.NGst)
	recvOff, sendOff := 0, 0
	for r := 0; r < p; r++ {
		gm.recvLidOff[r] = recvOff
		for s, lid := range h.recvLids[recvOff : recvOff+h.recvSegs[r]] {
			gm.ghostSlot[lid-g.NLoc] = int32(s)
		}
		recvOff += h.recvSegs[r]
		gm.sendVertOff[r] = sendOff
		sendOff += h.sendCounts[r]
	}
	h.geom = gm
	return gm, nil
}

// haloFor returns the retained queues for (g, dirs): the plan ctx.Plans
// holds when there is one, otherwise a fresh build, which is stored for
// the next caller. built reports whether this call paid for the build.
// With a nil ctx.Plans every call builds, as a one-shot program expects.
// Collective whenever it builds — which, the cache being reset in lockstep,
// is on every rank or on none. A failed build stores nothing.
func haloFor(ctx *core.Ctx, g *core.Graph, dirs Dirs) (h *Halo, built bool, err error) {
	if plan, ok := ctx.Plans.Lookup(dirs); ok {
		h = plan.(*Halo)
		if h.g != g {
			// Rebuilding here would be a one-rank decision and hang the
			// group; failing the job ends the generation, and the next one
			// starts with an empty cache.
			return nil, false, fmt.Errorf("analytics: retained halo belongs to another graph (plan cache not reset after the served shard changed)")
		}
		return h, false, nil
	}
	if h, err = BuildHalo(ctx, g, dirs); err != nil {
		return nil, false, err
	}
	ctx.Plans.Store(dirs, h)
	return h, true, nil
}

// withJobPlans returns ctx when it carries a plan cache, and otherwise a
// copy with a cache of its own, so the kernels of one job build each halo
// once.
func withJobPlans(ctx *core.Ctx) *core.Ctx {
	if ctx.Plans != nil {
		return ctx
	}
	scoped := *ctx
	scoped.Plans = core.NewPlans(nil)
	return &scoped
}

// Dirs selects which adjacency directions a halo covers: a vertex's value
// is sent to ranks owning its out-neighbors (Out), its in-neighbors (In),
// or both (the union, for undirected-style analytics).
type Dirs struct{ Out, In bool }

// DirsOut ships values along out-edges: afterwards every rank holds fresh
// values for all in-neighbors of its owned vertices (what PageRank pulls).
var DirsOut = Dirs{Out: true}

// DirsBoth ships values along both directions: afterwards every ghost copy
// on every rank is fresh (what Label Propagation and the coloring phases
// need).
var DirsBoth = Dirs{Out: true, In: true}

// BuildHalo constructs the retained queues for the given directions.
//
// One pass over the owned vertices finds each vertex's destination set —
// the remote ranks owning any of its selected neighbors — as a bit mask of
// ceil(p/64) words, and stops scanning a vertex's rows once every other
// rank is in it (at p = 2, at the first ghost neighbor). The fill pass
// reads the stored masks, not the edges. Each thread fills its own
// pre-counted slice of every destination's group, so sendVerts is ascending
// within a group whatever the thread count.
func BuildHalo(ctx *core.Ctx, g *core.Graph, dirs Dirs) (*Halo, error) {
	if err := require1D(g, "halo exchange"); err != nil {
		return nil, err
	}
	p := ctx.Size()
	nt := ctx.Pool.Threads()
	nloc := int(g.NLoc)

	// Mask pass (Algorithm 1 lines 4-11): masks[v*words:(v+1)*words] is
	// owned vertex v's destination set, perThread[t][d] how many vertices
	// of thread t's range ship to d.
	words := (p + 63) / 64
	masks := make([]uint64, nloc*words)
	perThread := make([][]uint64, nt)
	ctx.Pool.Run(func(tid int) {
		counts := make([]uint64, p)
		perThread[tid] = counts
		lo, hi := par.ThreadRange(nloc, nt, tid)
		for v := lo; v < hi; v++ {
			mask := masks[v*words : (v+1)*words]
			missing := p - 1
			if dirs.Out {
				missing = markDests(g, g.OutNeighbors(uint32(v)), mask, counts, missing)
			}
			if dirs.In {
				markDests(g, g.InNeighbors(uint32(v)), mask, counts, missing)
			}
		}
	})
	// Group d of sendVerts holds thread 0's vertices, then thread 1's, ...
	counts := make([]uint64, p)
	for _, tc := range perThread {
		for d, c := range tc {
			counts[d] += c
		}
	}
	offsets, total := par.ExclusivePrefixSum(counts)

	// Fill pass: every thread walks its masks and writes each vertex at its
	// own cursor in each destination's group.
	sendVerts := make([]uint32, total)
	ctx.Pool.Run(func(tid int) {
		cursor := make([]uint64, p)
		for d := range cursor {
			cursor[d] = offsets[d]
			for _, tc := range perThread[:tid] {
				cursor[d] += tc[d]
			}
		}
		lo, hi := par.ThreadRange(nloc, nt, tid)
		for v := lo; v < hi; v++ {
			for w, word := range masks[v*words : (v+1)*words] {
				for ; word != 0; word &= word - 1 {
					d := w<<6 | bits.TrailingZeros64(word)
					sendVerts[cursor[d]] = uint32(v)
					cursor[d]++
				}
			}
		}
	})

	sendCounts := make([]int, p)
	for d, c := range counts {
		sendCounts[d] = int(c)
	}

	// One-time global-id exchange; receivers convert to ghost local ids
	// once and retain them (the paper's "replace global ids with local ids
	// in vRecv" optimization).
	gids := make([]uint32, total)
	for i, v := range sendVerts {
		gids[i] = g.GlobalID(v)
	}
	recvGids, recvSegs, err := comm.Alltoallv(ctx.Comm, gids, sendCounts)
	if err != nil {
		return nil, err
	}
	recvLids := make([]uint32, len(recvGids))
	for i, gid := range recvGids {
		lid := g.LocalID(gid)
		if lid == core.InvalidLocal || lid < g.NLoc {
			return nil, fmt.Errorf("analytics: halo received vertex %d that is not a ghost here", gid)
		}
		recvLids[i] = lid
	}
	return &Halo{
		g:          g,
		sendVerts:  sendVerts,
		sendCounts: sendCounts,
		recvLids:   recvLids,
		recvSegs:   recvSegs,
		recvCounts: make([]int, p),
	}, nil
}

// markDests adds the owners of the ghosts among nbrs to the destination set
// mask, counting each rank it adds in counts. missing is how many remote
// ranks the set still lacks; the scan stops when none is, and the new value
// is returned.
func markDests(g *core.Graph, nbrs []uint32, mask, counts []uint64, missing int) int {
	for _, u := range nbrs {
		if missing == 0 {
			break
		}
		if u < g.NLoc {
			continue
		}
		d := int(g.GhostOwner[u-g.NLoc])
		if bit := uint64(1) << (d & 63); mask[d>>6]&bit == 0 {
			mask[d>>6] |= bit
			counts[d]++
			missing--
		}
	}
	return missing
}

// SendVolume returns the number of values shipped per exchange (the halo's
// outgoing width).
func (h *Halo) SendVolume() int { return len(h.sendVerts) }

// RecvVolume returns the number of ghost updates received per exchange.
func (h *Halo) RecvVolume() int { return len(h.recvLids) }

// haloParMin is the volume (elements) above which the halo gather/scatter
// loops fan out over the rank's thread pool. Below it the memcpy-like loop
// is cheaper than waking workers.
const haloParMin = 1 << 13

// Exchange refreshes ghost copies in state (length NTotal) from their
// owners: one value-only Alltoallv against the retained queues. Send and
// receive staging is retained on the halo and the byte buffers on the
// communicator, so after the first call an exchange performs zero heap
// allocations, whatever sequence of element types drives the halo; gather
// and scatter go parallel for large halos.
func Exchange[T comm.Scalar](ctx *core.Ctx, h *Halo, state []T) error {
	ns, nr := len(h.sendVerts), len(h.recvLids)
	send := comm.ScratchAs[T](&h.sendScratch, ns)
	par := ctx.Pool.Threads() > 1
	if par && ns >= haloParMin {
		ctx.Pool.For(ns, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				send[i] = state[h.sendVerts[i]]
			}
		})
	} else {
		for i, v := range h.sendVerts {
			send[i] = state[v]
		}
	}

	recv, recvCounts, err := comm.AlltoallvInto(ctx.Comm, send, h.sendCounts, comm.ScratchAs[T](&h.recvScratch, nr), h.recvCounts)
	if err != nil {
		return err
	}
	h.recvCounts = recvCounts
	for r, n := range recvCounts {
		if n != h.recvSegs[r] {
			return corruptFrom(ctx, r, "halo exchange: %d values from a peer whose queue here holds %d", n, h.recvSegs[r])
		}
	}
	// Each ghost here has exactly one owner and arrives once per exchange,
	// so the parallel scatter writes disjoint slots.
	if par && nr >= haloParMin {
		ctx.Pool.For(nr, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				state[h.recvLids[i]] = recv[i]
			}
		})
	} else {
		for i, lid := range h.recvLids {
			state[lid] = recv[i]
		}
	}
	return nil
}
