package core

import (
	"fmt"

	"repro/internal/comm"
)

// Gather assembles a global per-vertex array from each rank's owned-vertex
// values: vals[v] is the value of owned local vertex v (len NLoc), and the
// result is indexed by global id on every rank.
//
// Gather is a convenience for tests, examples, and final reporting on
// modest graphs; analytics themselves never materialize global arrays.
func Gather[T comm.Scalar](ctx *Ctx, g *Graph, vals []T) ([]T, error) {
	if len(vals) < int(g.NLoc) {
		return nil, fmt.Errorf("core: Gather with %d values for %d owned vertices", len(vals), g.NLoc)
	}
	gids, _, err := comm.Allgatherv(ctx.Comm, g.Unmap[:g.NLoc])
	if err != nil {
		return nil, err
	}
	all, _, err := comm.Allgatherv(ctx.Comm, vals[:g.NLoc])
	if err != nil {
		return nil, err
	}
	if len(all) != len(gids) || len(gids) != int(g.NGlobal) {
		return nil, fmt.Errorf("core: Gather assembled %d values for %d vertices", len(all), g.NGlobal)
	}
	out := make([]T, g.NGlobal)
	for i, gid := range gids {
		out[gid] = all[i]
	}
	return out, nil
}

// GhostExchangeU32 is not used by the tuned analytics (they build retained
// queues instead); it exists as the simple, obviously correct way to
// refresh ghost copies of a per-vertex array and is used by tests to check
// the tuned propagation paths against.
//
// state has NTotal entries; after the call, every ghost entry equals the
// owner's current value.
func GhostExchangeU32(ctx *Ctx, g *Graph, state []uint32) error {
	p := ctx.Size()
	// Request values for each ghost from its owner.
	counts := make([]int, p)
	for i := uint32(0); i < g.NGst; i++ {
		counts[g.GhostOwner[i]]++
	}
	offs := make([]int, p+1)
	for d := 0; d < p; d++ {
		offs[d+1] = offs[d] + counts[d]
	}
	req := make([]uint32, offs[p])
	cur := append([]int(nil), offs[:p]...)
	// Track which ghost local id each request slot corresponds to.
	slotGhost := make([]uint32, offs[p])
	for i := uint32(0); i < g.NGst; i++ {
		d := g.GhostOwner[i]
		req[cur[d]] = g.Unmap[g.NLoc+i]
		slotGhost[cur[d]] = g.NLoc + i
		cur[d]++
	}
	// Reorder slotGhost per destination is already inherent; exchange
	// requested gids.
	asked, askedCounts, err := comm.Alltoallv(ctx.Comm, req, counts)
	if err != nil {
		return err
	}
	// Answer with current owned values, in the order asked.
	reply := make([]uint32, 0, len(asked))
	for r, n := range askedCounts {
		for _, gid := range asked[len(reply):][:n] {
			lid := g.LocalID(gid)
			if lid == InvalidLocal || lid >= g.NLoc {
				return corruptFrom(ctx, r, "core: ghost request for vertex %d, which this rank does not own", gid)
			}
			reply = append(reply, state[lid])
		}
	}
	answers, _, err := comm.Alltoallv(ctx.Comm, reply, askedCounts)
	if err != nil {
		return err
	}
	if len(answers) != len(req) {
		return fmt.Errorf("core: ghost exchange answer count %d, want %d", len(answers), len(req))
	}
	for slot, val := range answers {
		state[slotGhost[slot]] = val
	}
	return nil
}

// corruptFrom builds the rank-attributed CommError for a peer message that
// no honest peer could have sent.
func corruptFrom(ctx *Ctx, peer int, format string, args ...any) error {
	return &comm.CommError{Rank: ctx.Rank(), Peer: peer, Kind: comm.KindCorrupt, Err: fmt.Errorf(format, args...)}
}
