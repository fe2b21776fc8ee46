package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/edge"
	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/vmap"
)

// mutationSchedule generates an adversarial ingest schedule against list:
// duplicate inserts, deletes of missing edges, deletes of live edges
// (including multigraph copies), and re-inserts of just-deleted edges.
// It returns the batches plus the oracle list after each batch.
func mutationSchedule(rng *rand.Rand, n uint32, list edge.List, batches, perBatch int) ([]edge.Batch, []edge.List) {
	var outBatches []edge.Batch
	var oracles []edge.List
	cur := append(edge.List(nil), list...)
	for b := 0; b < batches; b++ {
		var batch edge.Batch
		for len(batch) < perBatch {
			switch rng.Intn(10) {
			case 0, 1, 2: // random insert (often new, sometimes duplicate)
				batch = append(batch, edge.Mutation{Op: edge.OpInsert, Src: uint32(rng.Intn(int(n))), Dst: uint32(rng.Intn(int(n)))})
			case 3: // duplicate insert of a live edge
				if cur.Len() > 0 {
					i := rng.Intn(cur.Len())
					batch = append(batch, edge.Mutation{Op: edge.OpInsert, Src: cur.Src(i), Dst: cur.Dst(i)})
				}
			case 4, 5, 6: // delete a live edge
				if cur.Len() > 0 {
					i := rng.Intn(cur.Len())
					m := edge.Mutation{Op: edge.OpDelete, Src: cur.Src(i), Dst: cur.Dst(i)}
					batch = append(batch, m)
					if rng.Intn(2) == 0 { // re-insert after delete, same batch
						batch = append(batch, edge.Mutation{Op: edge.OpInsert, Src: m.Src, Dst: m.Dst})
					}
				}
			case 7: // delete of a (probably) missing edge
				batch = append(batch, edge.Mutation{Op: edge.OpDelete, Src: uint32(rng.Intn(int(n))), Dst: uint32(rng.Intn(int(n)))})
			case 8: // self-loop churn
				v := uint32(rng.Intn(int(n)))
				op := edge.OpInsert
				if rng.Intn(2) == 0 {
					op = edge.OpDelete
				}
				batch = append(batch, edge.Mutation{Op: op, Src: v, Dst: v})
			case 9: // insert then delete in the same batch (net no-op)
				u, v := uint32(rng.Intn(int(n))), uint32(rng.Intn(int(n)))
				batch = append(batch,
					edge.Mutation{Op: edge.OpInsert, Src: u, Dst: v},
					edge.Mutation{Op: edge.OpDelete, Src: u, Dst: v})
			}
		}
		cur = batch.ApplyTo(cur)
		outBatches = append(outBatches, batch)
		oracles = append(oracles, cur)
	}
	return outBatches, oracles
}

// globalAdjacency computes per-vertex sorted neighbor multisets from a
// global edge list — the sequential oracle for merged shard adjacency.
func globalAdjacency(n uint32, list edge.List) (out, in [][]uint32) {
	out = make([][]uint32, n)
	in = make([][]uint32, n)
	for i := 0; i < list.Len(); i++ {
		s, d := list.Src(i), list.Dst(i)
		out[s] = append(out[s], d)
		in[d] = append(in[d], s)
	}
	for v := range out {
		out[v] = sorted(out[v])
		in[v] = sorted(in[v])
	}
	return out, in
}

// checkShardAgainstOracle compares one shard's per-owned-vertex degrees
// and sorted global adjacency against the oracle.
func checkShardAgainstOracle(g *Graph, wantOut, wantIn [][]uint32) error {
	for v := uint32(0); v < g.NLoc; v++ {
		gid := g.GlobalID(v)
		gotOut := neighborsGlobal(g, g.OutNeighbors(v))
		if !equalU32(gotOut, wantOut[gid]) {
			return fmt.Errorf("vertex %d out adjacency %v, oracle %v", gid, gotOut, wantOut[gid])
		}
		gotIn := neighborsGlobal(g, g.InNeighbors(v))
		if !equalU32(gotIn, wantIn[gid]) {
			return fmt.Errorf("vertex %d in adjacency %v, oracle %v", gid, gotIn, wantIn[gid])
		}
		if g.OutDegree(v) != uint64(len(wantOut[gid])) || g.InDegree(v) != uint64(len(wantIn[gid])) {
			return fmt.Errorf("vertex %d degrees %d/%d, oracle %d/%d",
				gid, g.OutDegree(v), g.InDegree(v), len(wantOut[gid]), len(wantIn[gid]))
		}
	}
	return nil
}

// TestDeltaOverlayMatchesRebuild is the structural property battery:
// after every batch of a random interleaved insert/delete schedule, the
// merged overlay shard must match both the sequential adjacency oracle
// and a shard rebuilt from scratch from the mutated edge list — across 1D
// block, vertex/edge-balanced, and PuLP partitionings, so cut-edge
// mutations cross every partition shape.
func TestDeltaOverlayMatchesRebuild(t *testing.T) {
	const n = 220
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: n, NumEdges: 1400, Seed: 23}
	base, err := spec.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	batches, oracles := mutationSchedule(rand.New(rand.NewSource(5)), n, base, 4, 50)

	for _, p := range []int{1, 2, 3, 4} {
		for _, kind := range []partition.Kind{partition.VertexBlock, partition.EdgeBlock, partition.PuLPKind} {
			t.Run(fmt.Sprintf("p=%d/%v", p, kind), func(t *testing.T) {
				err := comm.RunLocal(p, func(c *comm.Comm) error {
					ctx := NewCtx(c, 2)
					src := ListSource{Edges: base}
					pt, err := MakePartitioner(ctx, src, kind, n, 99)
					if err != nil {
						return err
					}
					g, _, err := Build(ctx, src, pt)
					if err != nil {
						return err
					}
					d := NewDelta(g)
					var merged *Graph
					for bi, batch := range batches {
						if err := d.Apply(uint64(bi+1), batch); err != nil {
							return fmt.Errorf("batch %d: %w", bi, err)
						}
						mGlobal, err := comm.Allreduce(c, d.LiveOut(), comm.OpSum)
						if err != nil {
							return err
						}
						oracle := oracles[bi]
						if mGlobal != uint64(oracle.Len()) {
							return fmt.Errorf("batch %d: MGlobal %d, oracle %d", bi, mGlobal, oracle.Len())
						}
						merged, err = MergeDelta(d, mGlobal)
						if err != nil {
							return fmt.Errorf("batch %d: %w", bi, err)
						}
						wantOut, wantIn := globalAdjacency(n, oracle)
						if err := checkShardAgainstOracle(merged, wantOut, wantIn); err != nil {
							return fmt.Errorf("batch %d merged: %w", bi, err)
						}
						// Rebuild from scratch with the same partitioner and
						// compare shard to shard.
						rebuilt, _, err := Build(ctx, ListSource{Edges: oracle}, pt)
						if err != nil {
							return fmt.Errorf("batch %d rebuild: %w", bi, err)
						}
						if rebuilt.NLoc != merged.NLoc || rebuilt.MOut() != merged.MOut() || rebuilt.MIn() != merged.MIn() {
							return fmt.Errorf("batch %d: merged NLoc/MOut/MIn %d/%d/%d, rebuilt %d/%d/%d",
								bi, merged.NLoc, merged.MOut(), merged.MIn(), rebuilt.NLoc, rebuilt.MOut(), rebuilt.MIn())
						}
						if err := checkShardAgainstOracle(rebuilt, wantOut, wantIn); err != nil {
							return fmt.Errorf("batch %d rebuilt: %w", bi, err)
						}
					}
					// Replaying applied batch ids must be a no-op: the merged
					// shard encodes to the same bytes. The replay runs newest
					// first, since a batch is idempotent on its own and so is
					// the whole schedule replayed in order.
					before, err := EncodeShardState(merged, 0)
					if err != nil {
						return err
					}
					for bi := len(batches) - 1; bi >= 0; bi-- {
						if err := d.Apply(uint64(bi+1), batches[bi]); err != nil {
							return err
						}
					}
					replayed, err := MergeDelta(d, merged.MGlobal)
					if err != nil {
						return err
					}
					after, err := EncodeShardState(replayed, 0)
					if err != nil {
						return err
					}
					if !bytes.Equal(before, after) {
						return fmt.Errorf("replayed batch changed the merged shard")
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestMergeDeltaEmptyIsIdentity pins that merging an untouched overlay
// reproduces the base shard's logical structure (and that canonicalizing
// adjacency preserves the multiset per row).
func TestMergeDeltaEmptyIsIdentity(t *testing.T) {
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: 150, NumEdges: 900, Seed: 3}
	list, err := spec.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	err = comm.RunLocal(3, func(c *comm.Comm) error {
		ctx := NewCtx(c, 2)
		src := ListSource{Edges: list}
		pt, err := MakePartitioner(ctx, src, partition.VertexBlock, 150, 1)
		if err != nil {
			return err
		}
		g, _, err := Build(ctx, src, pt)
		if err != nil {
			return err
		}
		merged, err := MergeDelta(NewDelta(g), g.MGlobal)
		if err != nil {
			return err
		}
		canonicalizeAdjacency(g)
		if err := g.Validate(); err != nil {
			return fmt.Errorf("canonicalized base invalid: %w", err)
		}
		for v := uint32(0); v < g.NLoc; v++ {
			if !equalU32(neighborsGlobal(g, g.OutNeighbors(v)), neighborsGlobal(merged, merged.OutNeighbors(v))) {
				return fmt.Errorf("vertex %d out rows differ", g.GlobalID(v))
			}
			if !equalU32(neighborsGlobal(g, g.InNeighbors(v)), neighborsGlobal(merged, merged.InNeighbors(v))) {
				return fmt.Errorf("vertex %d in rows differ", g.GlobalID(v))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// mergeDeltaReference is MergeDelta as it stood before it moved into the
// base's local-id space: every live edge goes back to its global id, every
// row is sorted, ghosts are rediscovered through a fresh hash map and every
// edge is translated through it. It is the oracle the merge is pinned to,
// byte for byte.
func mergeDeltaReference(d *Delta, mGlobal uint64) (*Graph, error) {
	b := d.base
	nloc := b.NLoc

	mergeSide := func(idx []uint64, edges []uint32, tombs []uint64, extras map[uint32][]uint32, hint uint64) ([]uint64, []uint32) {
		newIdx := make([]uint64, nloc+1)
		gids := make([]uint32, 0, hint)
		for v := uint32(0); v < nloc; v++ {
			start := len(gids)
			for i := idx[v]; i < idx[v+1]; i++ {
				if !bitGet(tombs, i) {
					gids = append(gids, b.Unmap[edges[i]])
				}
			}
			gids = append(gids, extras[v]...)
			row := gids[start:]
			sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
			newIdx[v+1] = uint64(len(gids))
		}
		return newIdx, gids
	}
	outIdx, outGids := mergeSide(b.OutIdx, b.OutEdges, d.tombOut, d.extraOut, d.LiveOut())
	inIdx, inGids := mergeSide(b.InIdx, b.InEdges, d.tombIn, d.extraIn, d.LiveIn())

	vm := vmap.New(int(nloc) * 2)
	unmap := make([]uint32, nloc, nloc+b.NGst)
	copy(unmap, b.Unmap[:nloc])
	for i, gid := range unmap {
		vm.Put(gid, uint32(i))
	}
	discover := func(gids []uint32) {
		for _, gid := range gids {
			if _, ok := vm.Get(gid); !ok {
				vm.Put(gid, uint32(len(unmap)))
				unmap = append(unmap, gid)
			}
		}
	}
	discover(outGids)
	discover(inGids)
	ngst := uint32(len(unmap)) - nloc

	g := &Graph{
		NGlobal: b.NGlobal,
		MGlobal: mGlobal,
		NLoc:    nloc,
		NGst:    ngst,
		OutIdx:  outIdx,
		InIdx:   inIdx,
		Unmap:   unmap,
		Map:     vm,
		Part:    b.Part,
		rank:    b.rank,
	}
	g.GhostOwner = make([]int32, ngst)
	for i := uint32(0); i < ngst; i++ {
		g.GhostOwner[i] = int32(b.Part.Owner(unmap[nloc+i]))
	}
	translate := func(gids []uint32) ([]uint32, error) {
		lids := make([]uint32, len(gids))
		for i, gid := range gids {
			lid := vm.GetOr(gid, InvalidLocal)
			if lid == InvalidLocal {
				return nil, fmt.Errorf("core: merged neighbor %d missing from vertex map", gid)
			}
			lids[i] = lid
		}
		return lids, nil
	}
	var err error
	if g.OutEdges, err = translate(outGids); err != nil {
		return nil, err
	}
	if g.InEdges, err = translate(inGids); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: merged shard invalid: %w", err)
	}
	return g, nil
}

// mergeBoth runs the merge and its reference over one overlay and fails
// unless every Graph field and the encoded shard bytes agree (the map by
// content: its table layout is not part of a shard), the merged shard
// passes Validate (the merge checks only what it derives) and the base,
// its map included, is unchanged. It returns the merged shard and the
// merge's work counters.
func mergeBoth(d *Delta, mGlobal uint64) (*Graph, mergeStats, error) {
	baseBefore, err := EncodeShardState(d.base, 0)
	if err != nil {
		return nil, mergeStats{}, err
	}
	got, stats, err := mergeDelta(d, mGlobal)
	if err != nil {
		return nil, stats, fmt.Errorf("merge: %w", err)
	}
	if err := got.Validate(); err != nil {
		return nil, stats, fmt.Errorf("merged shard: %w", err)
	}
	want, err := mergeDeltaReference(d, mGlobal)
	if err != nil {
		return nil, stats, fmt.Errorf("reference merge: %w", err)
	}
	if got.NGlobal != want.NGlobal || got.MGlobal != want.MGlobal || got.NLoc != want.NLoc || got.NGst != want.NGst ||
		got.rank != want.rank || got.Part != want.Part || got.Grid != want.Grid {
		return nil, stats, fmt.Errorf("scalars: got n=%d m=%d nloc=%d ngst=%d rank=%d, want n=%d m=%d nloc=%d ngst=%d rank=%d",
			got.NGlobal, got.MGlobal, got.NLoc, got.NGst, got.rank, want.NGlobal, want.MGlobal, want.NLoc, want.NGst, want.rank)
	}
	if !slices.Equal(got.OutIdx, want.OutIdx) || !slices.Equal(got.InIdx, want.InIdx) {
		return nil, stats, fmt.Errorf("CSR index arrays differ")
	}
	if !equalU32(got.Unmap, want.Unmap) {
		return nil, stats, fmt.Errorf("unmap differs:\n got %v\nwant %v", got.Unmap, want.Unmap)
	}
	if !equalU32(got.OutEdges, want.OutEdges) || !equalU32(got.InEdges, want.InEdges) {
		return nil, stats, fmt.Errorf("edge arrays differ")
	}
	if len(got.GhostOwner) != len(want.GhostOwner) {
		return nil, stats, fmt.Errorf("ghost owner length %d, want %d", len(got.GhostOwner), len(want.GhostOwner))
	}
	for i := range got.GhostOwner {
		if got.GhostOwner[i] != want.GhostOwner[i] {
			return nil, stats, fmt.Errorf("ghost %d owner %d, want %d", i, got.GhostOwner[i], want.GhostOwner[i])
		}
	}
	if got.Map.Len() != len(want.Unmap) {
		return nil, stats, fmt.Errorf("map has %d entries, want %d", got.Map.Len(), len(want.Unmap))
	}
	for lid, gid := range want.Unmap {
		if l := got.Map.GetOr(gid, InvalidLocal); l != uint32(lid) {
			return nil, stats, fmt.Errorf("map[%d] = %d, want %d", gid, l, lid)
		}
	}
	gotBytes, err := EncodeShardState(got, 7)
	if err != nil {
		return nil, stats, err
	}
	wantBytes, err := EncodeShardState(want, 7)
	if err != nil {
		return nil, stats, err
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		return nil, stats, fmt.Errorf("encoded shard bytes differ")
	}
	if !got.rowsSorted.Load() {
		return nil, stats, fmt.Errorf("merged shard not marked as sorted")
	}
	baseAfter, err := EncodeShardState(d.base, 0)
	if err != nil {
		return nil, stats, err
	}
	if !bytes.Equal(baseBefore, baseAfter) {
		return nil, stats, fmt.Errorf("merge modified its base")
	}
	if err := d.base.Validate(); err != nil {
		return nil, stats, fmt.Errorf("merge modified its base: %w", err)
	}
	return got, stats, nil
}

// buildShards builds list over p ranks and returns every rank's shard, so
// the communication-free merge can be driven shard by shard outside the
// collective.
func buildShards(t testing.TB, list edge.List, n uint32, p int, kind partition.Kind) []*Graph {
	t.Helper()
	shards := make([]*Graph, p)
	err := comm.RunLocal(p, func(c *comm.Comm) error {
		ctx := NewCtx(c, 1)
		src := ListSource{Edges: list}
		pt, err := MakePartitioner(ctx, src, kind, n, 99)
		if err != nil {
			return err
		}
		g, _, err := Build(ctx, src, pt)
		shards[c.Rank()] = g
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return shards
}

// reloaded returns a private copy of g through the shard codec, with
// whatever the codec does not carry (the sortedness mark) dropped.
func reloaded(t testing.TB, g *Graph) *Graph {
	t.Helper()
	enc, err := EncodeShardState(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := LoadShardBytes(enc)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// ghostRefs describes how a canonical shard references one ghost: the
// global edge and (side, row) of its first appearance in the numbering
// scan, and how many entries name it in all.
type ghostRefs struct {
	src, dst uint32
	in       bool
	row      uint32
	refs     int
}

func refsOf(c *Graph, ghost uint32) ghostRefs {
	var r ghostRefs
	scan := func(in bool) {
		for v := uint32(0); v < c.NLoc; v++ {
			row := c.OutNeighbors(v)
			if in {
				row = c.InNeighbors(v)
			}
			for _, u := range row {
				if u != ghost {
					continue
				}
				if r.refs == 0 {
					r.in, r.row = in, v
					r.src, r.dst = c.GlobalID(v), c.GlobalID(u)
					if in {
						r.src, r.dst = r.dst, r.src
					}
				}
				r.refs++
			}
		}
	}
	scan(false)
	scan(true)
	return r
}

// mergeCase is one seeded schedule of TestMergeDeltaMatchesReference. The
// schedule is drawn from the canonical view of every rank's shard, so a
// case can aim at a particular ghost's first appearance; check, when set,
// inspects one rank's merge over its canonical base after the last batch
// and reports whether that rank hit the case.
type mergeCase struct {
	name     string
	schedule func(rng *rand.Rand, n uint32, list edge.List, canon []*Graph) []edge.Batch
	check    func(canon, merged *Graph, stats mergeStats) (hit bool, err error)
}

// eachRank collects into one batch the mutations pick draws from every
// rank's canonical shard.
func eachRank(canon []*Graph, pick func(c *Graph) []edge.Mutation) []edge.Batch {
	var batch edge.Batch
	for _, c := range canon {
		batch = append(batch, pick(c)...)
	}
	if len(batch) == 0 {
		return nil
	}
	return []edge.Batch{batch}
}

var mergeCases = []mergeCase{
	{
		// Deleting the edge that gave a ghost its number renumbers every
		// ghost first seen after it.
		name: "delete-first-appearance",
		schedule: func(_ *rand.Rand, _ uint32, _ edge.List, canon []*Graph) []edge.Batch {
			return eachRank(canon, func(c *Graph) []edge.Mutation {
				var ms []edge.Mutation
				for _, k := range []uint32{0, c.NGst / 2} {
					if k < c.NGst {
						r := refsOf(c, c.NLoc+k)
						ms = append(ms, edge.Mutation{Op: edge.OpDelete, Src: r.src, Dst: r.dst})
					}
				}
				return ms
			})
		},
		check: func(canon, merged *Graph, stats mergeStats) (bool, error) {
			if canon.NGst < 2 {
				return false, nil
			}
			if stats.sharedMap {
				return false, fmt.Errorf("first ghost lost its first edge, yet the numbering was shared")
			}
			return true, nil
		},
	},
	{
		// An insert from the first owned vertex to the last-numbered ghost
		// moves that ghost's first appearance to the front.
		name: "insert-earlier-appearance",
		schedule: func(_ *rand.Rand, _ uint32, _ edge.List, canon []*Graph) []edge.Batch {
			return eachRank(canon, func(c *Graph) []edge.Mutation {
				if c.NGst < 2 || c.NLoc == 0 {
					return nil
				}
				last := c.NLoc + c.NGst - 1
				if r := refsOf(c, last); !r.in && r.row == 0 {
					return nil
				}
				return []edge.Mutation{{Op: edge.OpInsert, Src: c.GlobalID(0), Dst: c.GlobalID(last)}}
			})
		},
		check: func(canon, merged *Graph, stats mergeStats) (bool, error) {
			if canon.NGst < 2 || canon.NLoc == 0 {
				return false, nil
			}
			last := canon.NLoc + canon.NGst - 1
			if r := refsOf(canon, last); !r.in && r.row == 0 {
				return false, nil
			}
			if now := merged.LocalID(canon.GlobalID(last)); now >= last {
				return false, fmt.Errorf("ghost %d kept id %d (was %d) after an earlier appearance", canon.GlobalID(last), now, last)
			}
			return true, nil
		},
	},
	{
		// Inserts to global ids the shard has never seen: fresh ghosts.
		name: "insert-unseen-gid",
		schedule: func(_ *rand.Rand, n uint32, _ edge.List, canon []*Graph) []edge.Batch {
			return eachRank(canon, func(c *Graph) []edge.Mutation {
				var ms []edge.Mutation
				for gid := uint32(0); gid < n && len(ms) < 4 && c.NLoc > 0; gid++ {
					if c.LocalID(gid) == InvalidLocal {
						// Out side from the last owned vertex, in side to the first.
						ms = append(ms,
							edge.Mutation{Op: edge.OpInsert, Src: c.GlobalID(c.NLoc - 1), Dst: gid},
							edge.Mutation{Op: edge.OpInsert, Src: gid, Dst: c.GlobalID(0)})
					}
				}
				return ms
			})
		},
		check: func(canon, merged *Graph, stats mergeStats) (bool, error) {
			if stats.freshGhosts == 0 {
				return false, nil
			}
			if merged.NGst <= canon.NGst {
				return false, fmt.Errorf("%d fresh ghosts but NGst %d -> %d", stats.freshGhosts, canon.NGst, merged.NGst)
			}
			return true, nil
		},
	},
	{
		// Deleting a ghost's only edge orphans it: it gets no id.
		name: "delete-orphans-ghost",
		schedule: func(_ *rand.Rand, _ uint32, _ edge.List, canon []*Graph) []edge.Batch {
			return eachRank(canon, func(c *Graph) []edge.Mutation {
				for k := uint32(0); k < c.NGst; k++ {
					if r := refsOf(c, c.NLoc+k); r.refs == 1 {
						return []edge.Mutation{{Op: edge.OpDelete, Src: r.src, Dst: r.dst}}
					}
				}
				return nil
			})
		},
		check: func(canon, merged *Graph, stats mergeStats) (bool, error) {
			for k := uint32(0); k < canon.NGst; k++ {
				if refsOf(canon, canon.NLoc+k).refs == 1 {
					if merged.NGst >= canon.NGst {
						return false, fmt.Errorf("orphaned a ghost but NGst %d -> %d", canon.NGst, merged.NGst)
					}
					return true, nil
				}
			}
			return false, nil
		},
	},
	{
		// The base list carries every edge of its head three times over;
		// one delete tombstones all copies, a re-insert brings back one.
		name: "duplicates-tombstone-all",
		schedule: func(_ *rand.Rand, _ uint32, list edge.List, _ []*Graph) []edge.Batch {
			var del, ins edge.Batch
			for i := 0; i < list.Len() && i < 12; i++ {
				del = append(del, edge.Mutation{Op: edge.OpDelete, Src: list.Src(i), Dst: list.Dst(i)})
				if i%2 == 0 {
					ins = append(ins, edge.Mutation{Op: edge.OpInsert, Src: list.Src(i), Dst: list.Dst(i)})
				}
			}
			if len(del) == 0 {
				return nil
			}
			return []edge.Batch{del, ins}
		},
	},
	{
		name: "self-loops",
		schedule: func(rng *rand.Rand, n uint32, _ edge.List, _ []*Graph) []edge.Batch {
			var ins, del edge.Batch
			for i := 0; i < 10; i++ {
				v := uint32(rng.Intn(int(n)))
				ins = append(ins, edge.Mutation{Op: edge.OpInsert, Src: v, Dst: v})
				if i%3 != 0 {
					del = append(del, edge.Mutation{Op: edge.OpDelete, Src: v, Dst: v})
				}
			}
			return []edge.Batch{ins, del}
		},
	},
	{
		// The adversarial mixed schedule, merged after every batch.
		name: "random-schedule",
		schedule: func(rng *rand.Rand, n uint32, list edge.List, _ []*Graph) []edge.Batch {
			batches, _ := mutationSchedule(rng, n, list, 5, 40)
			return batches
		},
	},
}

// TestMergeDeltaMatchesReference pins MergeDelta to its predecessor byte
// for byte, over schedules aimed at the renumbering's edge cases. Every
// schedule runs over three bases per shard — as built (rows in scatter
// order), rows sorted in place but ghosts numbered as built, and fully
// canonical (itself a merge's output) — and twice per base: merging again
// and again over the one base, and compacting (merged becomes base) after
// every batch; both must give the same bytes. Over the canonical base the
// counters pin the cheap path: no row is looked at unless the overlay
// touched it, and the base's map is probed once per extra, never per edge.
func TestMergeDeltaMatchesReference(t *testing.T) {
	const n = 96
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: n, NumEdges: 400, Seed: 41}
	rmat, err := spec.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	// Two more copies of the first dozen edges: a multigraph head.
	rmat = append(append(append(edge.List(nil), rmat[:24]...), rmat[:24]...), rmat...)
	graphs := []struct {
		name string
		n    uint32
		list edge.List
	}{
		{"rmat", n, rmat},
		{"edgeless", 7, nil},
	}
	for _, gr := range graphs {
		for _, p := range []int{1, 2, 4} {
			for _, kind := range []partition.Kind{partition.VertexBlock, partition.Random} {
				shards := buildShards(t, gr.list, gr.n, p, kind)
				canon := make([]*Graph, p)
				for r, g := range shards {
					c, stats, err := mergeBoth(NewDelta(g), g.MGlobal)
					if err != nil {
						t.Fatalf("%s p=%d %v rank %d: empty overlay over built base: %v", gr.name, p, kind, r, err)
					}
					if g.MOut() > 0 && stats.rowsChecked == 0 {
						t.Fatalf("built base merged without a sortedness check")
					}
					canon[r] = c
				}
				for _, mc := range mergeCases {
					mc := mc
					t.Run(fmt.Sprintf("%s/p=%d/%v/%s", gr.name, p, kind, mc.name), func(t *testing.T) {
						batches := mc.schedule(rand.New(rand.NewSource(int64(7*p)+int64(kind))), gr.n, gr.list, canon)
						if len(batches) == 0 {
							t.Skip("case does not arise on this graph")
						}
						hits := 0
						for r := range shards {
							sortedOnly := reloaded(t, shards[r])
							canonicalizeAdjacency(sortedOnly)
							bases := []*Graph{reloaded(t, shards[r]), sortedOnly, canon[r]}
							var final [][]byte
							for bi, base := range bases {
								for _, compactEach := range []bool{false, true} {
									d := NewDelta(base)
									var merged *Graph
									var stats mergeStats
									for id, batch := range batches {
										if err := d.Apply(uint64(id+1), batch); err != nil {
											t.Fatal(err)
										}
										touched := len(d.extraOut) + len(d.extraIn) + int(d.tombOutN+d.tombInN)
										extras := int(d.extraOutN + d.extraInN)
										sortedBase := d.base.rowsSorted.Load()
										if merged, stats, err = mergeBoth(d, uint64(id)); err != nil {
											t.Fatalf("rank %d base %d compact=%v batch %d: %v", r, bi, compactEach, id, err)
										}
										if sortedBase {
											if stats.rowsChecked > touched || stats.rowsSorted > len(d.extraOut)+len(d.extraIn) || stats.mapLookups != extras {
												t.Fatalf("rank %d base %d batch %d: sorted base did %+v for %d touched rows, %d extras", r, bi, id, stats, touched, extras)
											}
											if stats.sharedMap && stats.mapPuts != 0 {
												t.Fatalf("shared map, yet %d puts", stats.mapPuts)
											}
										}
										if compactEach {
											d = NewDelta(merged)
											d.FastForward(uint64(id + 1))
										}
									}
									enc, err := EncodeShardState(merged, 0)
									if err != nil {
										t.Fatal(err)
									}
									final = append(final, enc)
									if base == canon[r] && !compactEach && mc.check != nil {
										hit, err := mc.check(canon[r], merged, stats)
										if err != nil {
											t.Fatalf("rank %d: %v", r, err)
										}
										if hit {
											hits++
										}
									}
								}
							}
							for i := 1; i < len(final); i++ {
								if !bytes.Equal(final[0], final[i]) {
									t.Fatalf("rank %d: merge %d of the same logical graph differs from merge 0", r, i)
								}
							}
						}
						if mc.check != nil && p > 1 && gr.list.Len() > 0 && hits == 0 {
							t.Fatalf("no rank hit the case")
						}
					})
				}
			}
		}
	}
}

// TestMergeDeltaCanonicalBaseFastPath pins what a merge over a canonical
// base costs. When the overlay leaves the ghost numbering alone (an empty
// overlay, a tombstone on a later copy of a ghost) the merge shares the
// base's map outright, sorts nothing and hashes nothing. In every case it
// is one pass: each live endpoint is stored exactly once, a batch of
// inserts is merged into its rows without sorting one, and a base loaded
// from its encoding is scanned for order by its first merge only.
func TestMergeDeltaCanonicalBaseFastPath(t *testing.T) {
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: 128, NumEdges: 900, Seed: 17}
	list, err := spec.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	for r, g := range buildShards(t, list, 128, 2, partition.Random) {
		canon, err := MergeDelta(NewDelta(g), g.MGlobal)
		if err != nil {
			t.Fatal(err)
		}
		merged, stats, err := mergeBoth(NewDelta(canon), canon.MGlobal)
		if err != nil {
			t.Fatal(err)
		}
		if stats != (mergeStats{sharedMap: true, written: int(canon.MOut() + canon.MIn())}) {
			t.Fatalf("rank %d: empty overlay over canonical base did %+v", r, stats)
		}
		if merged.Map != canon.Map || &merged.Unmap[0] != &canon.Unmap[0] {
			t.Fatalf("rank %d: identity renumbering did not share the base's map and unmap", r)
		}
		// A ghost referenced at least twice: delete its last reference's edge
		// (as long as that is a different edge from the first appearance).
		var del *edge.Mutation
		for k := uint32(0); k < canon.NGst && del == nil; k++ {
			ghost := canon.NLoc + k
			first := refsOf(canon, ghost)
			for v := canon.NLoc; v > 0 && del == nil; v-- {
				for _, u := range canon.InNeighbors(v - 1) {
					if u == ghost && (canon.GlobalID(ghost) != first.src || canon.GlobalID(v-1) != first.dst) {
						del = &edge.Mutation{Op: edge.OpDelete, Src: canon.GlobalID(ghost), Dst: canon.GlobalID(v - 1)}
						break
					}
				}
			}
		}
		if del == nil {
			t.Fatalf("rank %d: no ghost with a second in-side reference", r)
		}
		d := NewDelta(canon)
		if err := d.Apply(1, edge.Batch{*del}); err != nil {
			t.Fatal(err)
		}
		if d.tombInN == 0 {
			t.Fatalf("rank %d: delete %v tombstoned nothing", r, *del)
		}
		if _, stats, err = mergeBoth(d, canon.MGlobal-1); err != nil {
			t.Fatal(err)
		}
		if !stats.sharedMap || stats.rowsSorted != 0 || stats.mapLookups != 0 || stats.mapPuts != 0 || stats.rowsChecked > int(d.tombInN) ||
			stats.written != int(d.LiveOut()+d.LiveIn()) {
			t.Fatalf("rank %d: one tombstone over canonical base did %+v", r, stats)
		}

		rng := rand.New(rand.NewSource(int64(r)))
		var ins edge.Batch
		for len(ins) < 40 {
			ins = append(ins, edge.Mutation{Op: edge.OpInsert, Src: uint32(rng.Intn(128)), Dst: uint32(rng.Intn(128))})
		}
		loaded := reloaded(t, canon)
		for _, base := range []*Graph{g, canon, loaded, loaded} {
			d := NewDelta(base)
			if err := d.Apply(1, ins); err != nil {
				t.Fatal(err)
			}
			if d.extraOutN == 0 || d.extraInN == 0 {
				t.Fatalf("rank %d: the inserts added no edge on one side", r)
			}
			known := base.rowsSorted.Load()
			if _, stats, err = mergeBoth(d, canon.MGlobal); err != nil {
				t.Fatal(err)
			}
			if stats.written != int(d.LiveOut()+d.LiveIn()) || stats.mapLookups != int(d.extraOutN+d.extraInN) {
				t.Fatalf("rank %d: inserts (base in order %v) did %+v", r, known, stats)
			}
			if !known && !base.rowsSorted.Load() {
				continue // the built base: its rows are sorted on every merge
			}
			wantChecked := 0
			if !known {
				wantChecked = 2 * int(base.NLoc) // the loaded base's first merge scans every row
			}
			if stats.rowsSorted != 0 || stats.rowsChecked != wantChecked {
				t.Fatalf("rank %d: inserts over a sorted base (scanned %v) did %+v", r, !known, stats)
			}
		}
		if g.rowsSorted.Load() || !loaded.rowsSorted.Load() {
			t.Fatalf("rank %d: marks after the merges: built %v, loaded %v; want false, true", r, g.rowsSorted.Load(), loaded.rowsSorted.Load())
		}
	}
}

// TestMergeDeltaConcurrentOverLoadedBase runs merges over one loaded base
// from several goroutines at once: the first merges race to scan the base
// and mark it in order, and every merge must still give the same shard.
func TestMergeDeltaConcurrentOverLoadedBase(t *testing.T) {
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: 128, NumEdges: 900, Seed: 23}
	list, err := spec.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	g := buildShards(t, list, 128, 2, partition.Random)[0]
	canon, err := MergeDelta(NewDelta(g), g.MGlobal)
	if err != nil {
		t.Fatal(err)
	}
	base := reloaded(t, canon)
	batch := edge.Batch{{Op: edge.OpInsert, Src: 3, Dst: 77}, {Op: edge.OpDelete, Src: list.Src(0), Dst: list.Dst(0)}}
	encs := make([][]byte, 4)
	var wg sync.WaitGroup
	for i := range encs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d := NewDelta(base)
			if err := d.Apply(1, batch); err != nil {
				t.Error(err)
				return
			}
			merged, err := MergeDelta(d, canon.MGlobal)
			if err == nil {
				encs[i], err = EncodeShardState(merged, 0)
			}
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(encs); i++ {
		if !bytes.Equal(encs[0], encs[i]) {
			t.Fatalf("merge %d differs from merge 0", i)
		}
	}
	if !base.rowsSorted.Load() {
		t.Fatal("no merge marked the loaded base in order")
	}
}

// mergeFuzzShards are FuzzMergeDelta's fixed bases, built once.
func mergeFuzzShards(t testing.TB) []*Graph {
	list := edge.List{0, 5, 5, 0, 1, 6, 6, 2, 2, 7, 3, 3, 7, 1, 4, 9, 9, 4, 0, 5, 8, 2, 2, 8, 10, 11, 11, 0, 6, 6}
	return buildShards(t, list, 14, 2, partition.Random)
}

// fuzzMergeStream drives one byte stream through the merge and its
// reference on every shard: each 3 bytes are one record (op, src, dst);
// op also decides whether the batch ends there and whether the merged
// shard then becomes the base.
func fuzzMergeStream(shards []*Graph, data []byte) error {
	for r, g := range shards {
		n := g.NGlobal
		d := NewDelta(g)
		id := uint64(0)
		var batch edge.Batch
		flush := func(compact bool) error {
			if len(batch) == 0 {
				return nil
			}
			id++
			err := d.Apply(id, batch)
			batch = batch[:0]
			if err != nil {
				return err
			}
			merged, _, err := mergeBoth(d, id)
			if err != nil {
				return fmt.Errorf("rank %d batch %d: %w", r, id, err)
			}
			if compact {
				d = NewDelta(merged)
				d.FastForward(id)
			}
			return nil
		}
		for ; len(data) >= 3; data = data[3:] {
			op := edge.OpInsert
			if data[0]&1 == 1 {
				op = edge.OpDelete
			}
			batch = append(batch, edge.Mutation{Op: op, Src: uint32(data[1]) % n, Dst: uint32(data[2]) % n})
			if data[0]&6 == 6 {
				if err := flush(data[0]&8 != 0); err != nil {
					return err
				}
			}
		}
		if err := flush(false); err != nil {
			return err
		}
	}
	return nil
}

// FuzzMergeDelta drives random record streams through MergeDelta and
// mergeDeltaReference; any divergence in a Graph field or an encoded byte
// fails.
func FuzzMergeDelta(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 7, 1, 0, 5, 6, 3, 3, 15, 12, 13, 1, 12, 13})
	f.Add([]byte{1, 10, 11, 7, 11, 0, 0, 13, 12, 14, 9, 4, 0, 4, 9})
	shards := mergeFuzzShards(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*256 {
			data = data[:3*256]
		}
		if err := fuzzMergeStream(shards, data); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkMergeDelta times one merge of a 256-record overlay on a rank
// of the repository benchmark's graph (R-MAT, n = 2^16, m = 36 n, 2 ranks,
// random partition), over a base as built, over a canonical one, and over
// the canonical one decoded from its encoding (as a restart from the store
// or a promoted backup holds it).
func BenchmarkMergeDelta(b *testing.B) {
	const n = 1 << 16
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: n, NumEdges: 36 * n, Seed: 1}
	list, err := spec.GenerateAll()
	if err != nil {
		b.Fatal(err)
	}
	built := buildShards(b, list, n, 2, partition.Random)[0]
	canon, err := MergeDelta(NewDelta(built), built.MGlobal)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var batch edge.Batch
	for len(batch) < 256 {
		if rng.Intn(10) < 7 {
			batch = append(batch, edge.Mutation{Op: edge.OpInsert, Src: uint32(rng.Intn(n)), Dst: uint32(rng.Intn(n))})
		} else {
			i := rng.Intn(list.Len())
			batch = append(batch, edge.Mutation{Op: edge.OpDelete, Src: list.Src(i), Dst: list.Dst(i)})
		}
	}
	for _, base := range []struct {
		name string
		g    *Graph
	}{{"built", built}, {"canonical", canon}, {"loaded", reloaded(b, canon)}} {
		d := NewDelta(base.g)
		if err := d.Apply(1, batch); err != nil {
			b.Fatal(err)
		}
		b.Run(base.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := MergeDelta(d, built.MGlobal); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// canonicalizeAdjacency sorts every owned vertex's out- and in-neighbor
// row by neighbor global id, in place: the order MergeDelta writes. A built
// shard lists each row in input order, so only a (src, dst)-sorted edge
// list builds sorted rows; this sorts the rows of any other build. Ghost
// numbering is left as it is.
func canonicalizeAdjacency(g *Graph) {
	m := &merger{b: g, nb: g.NTotal()}
	for v := uint32(0); v < g.NLoc; v++ {
		m.sortRow(g.OutEdges[g.OutIdx[v]:g.OutIdx[v+1]])
		m.sortRow(g.InEdges[g.InIdx[v]:g.InIdx[v+1]])
	}
	g.rowsSorted.Store(true)
}
