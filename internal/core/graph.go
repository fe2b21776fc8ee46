package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/partition"
	"repro/internal/vmap"
)

// InvalidLocal is the sentinel for "no local id".
const InvalidLocal = ^uint32(0)

// Graph is one rank's shard of the distributed graph — the exact structural
// state of the paper's Table II. Local vertices are relabeled to
// [0, NLoc) in ascending global-id order; ghost vertices (endpoints of
// local edges owned by other ranks) occupy [NLoc, NLoc+NGst) in order of
// first appearance: for a built shard, as the second id of the exchanged
// out pairs, then the in pairs, each list in input order at any thread
// count; for a shard out of MergeDelta, in a scan of the out rows, then the
// in rows, vertex by vertex with each row sorted by neighbor global id — a
// rule that depends on the logical graph alone. Per-vertex analytic state
// is then a flat (NLoc+NGst)-length array instead of a hash map — the
// paper's central data-structure decision.
type Graph struct {
	// NGlobal and MGlobal are the global vertex and directed edge counts.
	NGlobal uint32
	MGlobal uint64

	// NLoc and NGst count owned and ghost vertices on this rank.
	NLoc uint32
	NGst uint32

	// OutIdx/OutEdges are the CSR of out-edges of owned vertices: the
	// out-neighbors of local vertex v (in local ids) are
	// OutEdges[OutIdx[v]:OutIdx[v+1]]. MOut == OutIdx[NLoc].
	OutIdx   []uint64
	OutEdges []uint32

	// InIdx/InEdges are the CSR of in-edges of owned vertices.
	InIdx   []uint64
	InEdges []uint32

	// Unmap translates local ids (owned and ghost) back to global ids:
	// the paper's unmap array.
	Unmap []uint32

	// Map translates global ids to local ids for every owned and ghost
	// vertex: the paper's linear-probing hash map.
	Map *vmap.Map

	// GhostOwner[g] is the owning rank of ghost NLoc+g: the paper's
	// "tasks" array. (With block partitionings it could be recomputed from
	// the global id, but as the paper notes, general partitionings require
	// holding it.)
	GhostOwner []int32

	// Part is the partitioner the graph was built with.
	Part partition.Partitioner

	// Grid, when non-nil, marks the shard as a 2D checkerboard layout:
	// edges live in the grid-block CSRs of the layout (sources indexed by
	// column-block id, destinations by global id) rather than in
	// OutEdges/InEdges, which stay nil. The base index arrays OutIdx/InIdx
	// still carry the true global degrees of the owned vertices (reduced
	// over the grid column at build time), so degree-driven code such as
	// WCC's pivot selection works unchanged, but neighbor iteration and
	// the ghost/halo machinery do not apply — analytics without a 2D
	// exchange path must reject grid shards via Is2D.
	Grid *GridLayout

	rank int

	// rowsSorted records that every row is known to be in ascending
	// neighbor-global-id order (the shard came out of MergeDelta, or a
	// merge's scan found it so), which lets the next merge over it copy
	// untouched rows unread. Not persisted: a loaded shard starts unknown.
	// Atomic: merges over one base may race.
	rowsSorted atomic.Bool
}

// mapOf builds a shard's global→local map from its Unmap.
func mapOf(unmap []uint32) *vmap.Map {
	m := vmap.New(len(unmap))
	for lid, gid := range unmap {
		m.Put(gid, uint32(lid))
	}
	return m
}

// Is2D reports whether the shard uses the 2D checkerboard layout. Analytics
// that only implement the 1D ghost/halo exchange must fail fast on 2D
// shards instead of touching the (nil) 1D edge arrays.
func (g *Graph) Is2D() bool { return g.Grid != nil }

// MOut returns the number of task-local out-edges.
func (g *Graph) MOut() uint64 { return g.OutIdx[g.NLoc] }

// MIn returns the number of task-local in-edges.
func (g *Graph) MIn() uint64 { return g.InIdx[g.NLoc] }

// NTotal returns NLoc+NGst, the length of per-vertex state arrays.
func (g *Graph) NTotal() uint32 { return g.NLoc + g.NGst }

// Rank returns the owning rank of this shard.
func (g *Graph) Rank() int { return g.rank }

// OutNeighbors returns the out-neighbor local ids of owned vertex v.
// The slice aliases graph storage and must not be modified.
func (g *Graph) OutNeighbors(v uint32) []uint32 {
	return g.OutEdges[g.OutIdx[v]:g.OutIdx[v+1]]
}

// InNeighbors returns the in-neighbor local ids of owned vertex v.
func (g *Graph) InNeighbors(v uint32) []uint32 {
	return g.InEdges[g.InIdx[v]:g.InIdx[v+1]]
}

// OutDegree returns the out-degree of owned vertex v.
func (g *Graph) OutDegree(v uint32) uint64 { return g.OutIdx[v+1] - g.OutIdx[v] }

// InDegree returns the in-degree of owned vertex v.
func (g *Graph) InDegree(v uint32) uint64 { return g.InIdx[v+1] - g.InIdx[v] }

// GlobalID returns the global id of local id lid.
func (g *Graph) GlobalID(lid uint32) uint32 { return g.Unmap[lid] }

// LocalID returns the local id of global vertex gid, or InvalidLocal if
// gid is neither owned nor a ghost on this rank.
func (g *Graph) LocalID(gid uint32) uint32 {
	return g.Map.GetOr(gid, InvalidLocal)
}

// Validate checks the structural invariants of the shard; it is used by
// tests and by the harness after construction. It is O(NTotal + MOut + MIn).
func (g *Graph) Validate() error {
	if int(g.NTotal()) != len(g.Unmap) {
		return fmt.Errorf("core: unmap length %d != NLoc+NGst %d", len(g.Unmap), g.NTotal())
	}
	if len(g.OutIdx) != int(g.NLoc)+1 || len(g.InIdx) != int(g.NLoc)+1 {
		return fmt.Errorf("core: CSR index lengths %d/%d for NLoc %d", len(g.OutIdx), len(g.InIdx), g.NLoc)
	}
	if g.Map.Len() != int(g.NTotal()) {
		return fmt.Errorf("core: map has %d entries, want %d", g.Map.Len(), g.NTotal())
	}
	for lid, gid := range g.Unmap {
		if got := g.Map.GetOr(gid, InvalidLocal); got != uint32(lid) {
			return fmt.Errorf("core: map[%d] = %d, unmap says %d", gid, got, lid)
		}
	}
	for v := uint32(0); v < g.NLoc; v++ {
		if g.OutIdx[v] > g.OutIdx[v+1] || g.InIdx[v] > g.InIdx[v+1] {
			return fmt.Errorf("core: decreasing CSR index at %d", v)
		}
		if g.Part.Owner(g.Unmap[v]) != g.rank {
			return fmt.Errorf("core: owned vertex %d belongs to rank %d", g.Unmap[v], g.Part.Owner(g.Unmap[v]))
		}
	}
	for gi := uint32(0); gi < g.NGst; gi++ {
		gid := g.Unmap[g.NLoc+gi]
		if int(g.GhostOwner[gi]) != g.Part.Owner(gid) {
			return fmt.Errorf("core: ghost %d owner %d, partitioner says %d", gid, g.GhostOwner[gi], g.Part.Owner(gid))
		}
		if g.GhostOwner[gi] == int32(g.rank) {
			return fmt.Errorf("core: ghost %d owned by this rank", gid)
		}
	}
	for i, edges := range [2][]uint32{g.OutEdges, g.InEdges} {
		if e := maxID(edges); len(edges) > 0 && e >= g.NTotal() {
			return fmt.Errorf("core: %s-edge endpoint %d out of range", [2]string{"out", "in"}[i], e)
		}
	}
	return nil
}

// maxID returns the largest id in s (0 when s is empty); four branch-free
// lanes keep Validate's bound on every merged shard at memory speed.
func maxID(s []uint32) uint32 {
	var m0, m1, m2, m3 uint32
	for ; len(s) >= 4; s = s[4:] {
		m0, m1, m2, m3 = max(m0, s[0]), max(m1, s[1]), max(m2, s[2]), max(m3, s[3])
	}
	for _, e := range s {
		m0 = max(m0, e)
	}
	return max(m0, m1, m2, m3)
}
