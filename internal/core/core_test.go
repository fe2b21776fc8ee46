package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/edge"
	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/seq"
)

// buildAll runs fn on each rank with a freshly built graph for every
// (rank count, partition kind) combination.
func buildAll(t *testing.T, src EdgeSource, n uint32, fn func(ctx *Ctx, g *Graph) error) {
	t.Helper()
	for _, p := range []int{1, 2, 3, 4, 8} {
		for _, kind := range []partition.Kind{partition.VertexBlock, partition.EdgeBlock, partition.Random} {
			p, kind := p, kind
			t.Run(fmt.Sprintf("p=%d/%v", p, kind), func(t *testing.T) {
				err := comm.RunLocal(p, func(c *comm.Comm) error {
					ctx := NewCtx(c, 2)
					pt, err := MakePartitioner(ctx, src, kind, n, 99)
					if err != nil {
						return err
					}
					g, tm, err := Build(ctx, src, pt)
					if err != nil {
						return err
					}
					if tm.Read < 0 || tm.Exchange < 0 || tm.Convert < 0 {
						return fmt.Errorf("negative timings: %+v", tm)
					}
					if err := g.Validate(); err != nil {
						return err
					}
					return fn(ctx, g)
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// neighborsGlobal returns the sorted multiset of global neighbor ids.
func neighborsGlobal(g *Graph, lids []uint32) []uint32 {
	out := make([]uint32, len(lids))
	for i, l := range lids {
		out[i] = g.GlobalID(l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sorted(vs []uint32) []uint32 {
	out := append([]uint32(nil), vs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBuildMatchesSequential(t *testing.T) {
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: 300, NumEdges: 2500, Seed: 12}
	edges, err := spec.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	ref := seq.FromEdges(spec.NumVertices, edges)
	src := ListSource{Edges: edges}

	buildAll(t, src, spec.NumVertices, func(ctx *Ctx, g *Graph) error {
		if g.NGlobal != spec.NumVertices || g.MGlobal != spec.NumEdges {
			return fmt.Errorf("global sizes %d/%d", g.NGlobal, g.MGlobal)
		}
		for v := uint32(0); v < g.NLoc; v++ {
			gid := g.GlobalID(v)
			if g.OutDegree(v) != ref.OutDeg(gid) {
				return fmt.Errorf("vertex %d out-degree %d, want %d", gid, g.OutDegree(v), ref.OutDeg(gid))
			}
			if g.InDegree(v) != ref.InDeg(gid) {
				return fmt.Errorf("vertex %d in-degree %d, want %d", gid, g.InDegree(v), ref.InDeg(gid))
			}
			if !equalU32(neighborsGlobal(g, g.OutNeighbors(v)), sorted(ref.OutN(gid))) {
				return fmt.Errorf("vertex %d out-neighbors differ", gid)
			}
			if !equalU32(neighborsGlobal(g, g.InNeighbors(v)), sorted(ref.InN(gid))) {
				return fmt.Errorf("vertex %d in-neighbors differ", gid)
			}
		}
		return nil
	})
}

func TestBuildSelfLoopsAndParallelEdges(t *testing.T) {
	l := edge.List{0, 0, 0, 1, 0, 1, 1, 0, 2, 2, 2, 2}
	ref := seq.FromEdges(3, l)
	buildAll(t, ListSource{Edges: l}, 3, func(ctx *Ctx, g *Graph) error {
		for v := uint32(0); v < g.NLoc; v++ {
			gid := g.GlobalID(v)
			if g.OutDegree(v) != ref.OutDeg(gid) || g.InDegree(v) != ref.InDeg(gid) {
				return fmt.Errorf("vertex %d degrees %d/%d", gid, g.OutDegree(v), g.InDegree(v))
			}
		}
		return nil
	})
}

func TestBuildEmptyGraph(t *testing.T) {
	buildAll(t, ListSource{Edges: nil}, 5, func(ctx *Ctx, g *Graph) error {
		if g.MOut() != 0 || g.MIn() != 0 || g.NGst != 0 {
			return fmt.Errorf("empty graph has edges or ghosts: %d %d %d", g.MOut(), g.MIn(), g.NGst)
		}
		return nil
	})
}

func TestBuildRejectsOutOfRangeEndpoints(t *testing.T) {
	err := comm.RunLocal(2, func(c *comm.Comm) error {
		ctx := NewCtx(c, 1)
		pt := partition.NewVertexBlock(3, 2)
		_, _, err := Build(ctx, ListSource{Edges: edge.List{0, 5}}, pt)
		if err == nil {
			return fmt.Errorf("endpoint 5 accepted with n=3")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGhostCountsConsistent(t *testing.T) {
	spec := gen.Spec{Kind: gen.ER, NumVertices: 200, NumEdges: 1200, Seed: 8}
	edges, _ := spec.GenerateAll()
	buildAll(t, ListSource{Edges: edges}, spec.NumVertices, func(ctx *Ctx, g *Graph) error {
		// Sum of NLoc over ranks is n.
		totalLoc, err := comm.Allreduce(ctx.Comm, uint64(g.NLoc), comm.OpSum)
		if err != nil {
			return err
		}
		if totalLoc != uint64(g.NGlobal) {
			return fmt.Errorf("sum NLoc = %d, want %d", totalLoc, g.NGlobal)
		}
		// With one rank there are no ghosts.
		if ctx.Size() == 1 && g.NGst != 0 {
			return fmt.Errorf("single rank has %d ghosts", g.NGst)
		}
		return nil
	})
}

func TestScanNumVertices(t *testing.T) {
	l := edge.List{0, 7, 3, 2, 900, 5}
	for _, p := range []int{1, 2, 4} {
		err := comm.RunLocal(p, func(c *comm.Comm) error {
			ctx := NewCtx(c, 1)
			n, err := ScanNumVertices(ctx, ListSource{Edges: l})
			if err != nil {
				return err
			}
			if n != 901 {
				return fmt.Errorf("n = %d, want 901", n)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestEdgeBlockPartitionerMatchesSequential(t *testing.T) {
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: 500, NumEdges: 4000, Seed: 21}
	edges, _ := spec.GenerateAll()
	// Sequential reference bounds from full degrees.
	degrees := make([]uint64, spec.NumVertices)
	for _, v := range edges {
		degrees[v]++
	}
	for _, p := range []int{1, 2, 3, 5, 8} {
		want := partition.EdgeBlockBounds(degrees, p)
		err := comm.RunLocal(p, func(c *comm.Comm) error {
			ctx := NewCtx(c, 2)
			pt, err := EdgeBlockPartitioner(ctx, ListSource{Edges: edges}, spec.NumVertices)
			if err != nil {
				return err
			}
			got := pt.Bounds()
			if len(got) != len(want) {
				return fmt.Errorf("bounds length %d", len(got))
			}
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("p=%d bounds[%d] = %d, want %d (got %v want %v)", p, i, got[i], want[i], got, want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestEdgeBlockPartitionerZeroMass(t *testing.T) {
	err := comm.RunLocal(3, func(c *comm.Comm) error {
		ctx := NewCtx(c, 1)
		pt, err := EdgeBlockPartitioner(ctx, ListSource{Edges: nil}, 10)
		if err != nil {
			return err
		}
		if pt.NumVertices() != 10 {
			return fmt.Errorf("n = %d", pt.NumVertices())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	spec := gen.Spec{Kind: gen.ER, NumVertices: 100, NumEdges: 400, Seed: 3}
	edges, _ := spec.GenerateAll()
	buildAll(t, ListSource{Edges: edges}, spec.NumVertices, func(ctx *Ctx, g *Graph) error {
		vals := make([]uint32, g.NLoc)
		for v := range vals {
			vals[v] = g.GlobalID(uint32(v)) * 3
		}
		global, err := Gather(ctx, g, vals)
		if err != nil {
			return err
		}
		for gid, got := range global {
			if got != uint32(gid)*3 {
				return fmt.Errorf("global[%d] = %d", gid, got)
			}
		}
		return nil
	})
}

func TestGhostExchange(t *testing.T) {
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: 150, NumEdges: 1500, Seed: 31}
	edges, _ := spec.GenerateAll()
	buildAll(t, ListSource{Edges: edges}, spec.NumVertices, func(ctx *Ctx, g *Graph) error {
		state := make([]uint32, g.NTotal())
		for v := uint32(0); v < g.NLoc; v++ {
			state[v] = g.GlobalID(v) ^ 0xabcd
		}
		if err := GhostExchangeU32(ctx, g, state); err != nil {
			return err
		}
		for gi := uint32(0); gi < g.NGst; gi++ {
			lid := g.NLoc + gi
			if want := g.GlobalID(lid) ^ 0xabcd; state[lid] != want {
				return fmt.Errorf("ghost %d = %d, want %d", g.GlobalID(lid), state[lid], want)
			}
		}
		return nil
	})
}

// TestGhostExchangeRejectsForgedRequest: rank 1 sends rank 0 a ghost
// request by hand for a vertex rank 0 does not own — unknown to it, or
// only its ghost. Rank 0 must fail with a corrupt-message CommError naming
// rank 1 instead of panicking, and rank 1 must see the group abort in the
// answer round.
func TestGhostExchangeRejectsForgedRequest(t *testing.T) {
	var path edge.List
	for v := uint32(1); v < 40; v++ {
		path.Push(v, v+1)
	}
	// Vertex-block over 64 vertices: rank 0 owns 0..31 and ghosts 32.
	for _, gid := range []uint32{50, 1 << 20, 32} {
		t.Run(fmt.Sprintf("gid=%d", gid), func(t *testing.T) {
			trs := comm.NewLocalGroup(2)
			errs := comm.RunOnAll([]*comm.Comm{comm.New(trs[0]), comm.New(trs[1])}, func(c *comm.Comm) error {
				ctx := NewCtx(c, 1)
				g, _, err := Build(ctx, ListSource{Edges: path}, partition.NewVertexBlock(64, 2))
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					return GhostExchangeU32(ctx, g, make([]uint32, g.NTotal()))
				}
				if _, _, err := comm.Alltoallv(c, []uint32{gid}, []int{1, 0}); err != nil {
					return err
				}
				_, _, err = comm.Alltoallv(c, []uint32{0}, []int{0, 1})
				return err
			})
			var ce *comm.CommError
			if !errors.As(errs[0], &ce) || ce.Kind != comm.KindCorrupt || ce.Peer != 1 {
				t.Fatalf("rank 0 returned %v, want a corrupt-message CommError for peer 1", errs[0])
			}
			if comm.Classify(errs[1]) != comm.KindAborted {
				t.Fatalf("forging rank: %v, want the group abort", errs[1])
			}
		})
	}
}

// shuffleForger rewrites the first message its rank sends rank 0 that is
// longer than one word: in Build, the out-edge shuffle's segment (the
// rounds before it are barriers and one-byte reduces).
type shuffleForger struct {
	comm.Transport
	forge  func(msg []byte) []byte
	forged bool
}

func (f *shuffleForger) Exchange(out [][]byte) ([][]byte, time.Duration, error) {
	if !f.forged && len(out[0]) > 8 {
		out[0] = f.forge(slices.Clone(out[0]))
		f.forged = true
	}
	return f.Transport.Exchange(out)
}

func (f *shuffleForger) Abort() { f.Transport.(interface{ Abort() }).Abort() }

// TestBuildRejectsForgedShuffle forges rank 1's out-edge shuffle segment
// for rank 0. Over a vertex block of 64, rank 1 reads the edges (63-v, v)
// and sends rank 0 the 31 whose source it owns, starting with (31, 32). A
// destination or a source outside the graph, a source rank 1 owns itself,
// and a segment with an odd word count each fail the build with a
// corrupt-message CommError naming the forger, and the forger sees the
// group abort.
func TestBuildRejectsForgedShuffle(t *testing.T) {
	var edges edge.List
	for v := uint32(0); v < 63; v++ {
		edges.Push(v, v+1)
	}
	for v := uint32(0); v < 63; v++ {
		edges.Push(63-v, v)
	}
	setWord := func(i int, w uint32) func([]byte) []byte {
		return func(msg []byte) []byte {
			binary.LittleEndian.PutUint32(msg[4*i:], w)
			return msg
		}
	}
	for _, f := range []struct {
		name  string
		forge func([]byte) []byte
	}{
		{"destination outside the graph", setWord(1, 64)},
		{"source outside the graph", setWord(0, 64)},
		{"source the sender owns", setWord(0, 40)},
		{"odd word count", func(msg []byte) []byte { return msg[:len(msg)-4] }},
	} {
		t.Run(f.name, func(t *testing.T) {
			trs := comm.NewLocalGroup(2)
			forger := &shuffleForger{Transport: trs[1], forge: f.forge}
			errs := comm.RunOnAll([]*comm.Comm{comm.New(trs[0]), comm.New(forger)}, func(c *comm.Comm) error {
				_, _, err := Build(NewCtx(c, 1), ListSource{Edges: edges}, partition.NewVertexBlock(64, 2))
				return err
			})
			if !forger.forged {
				t.Fatal("the forger never sent its forgery")
			}
			var ce *comm.CommError
			if !errors.As(errs[0], &ce) || ce.Kind != comm.KindCorrupt || ce.Peer != 1 {
				t.Fatalf("rank 0 returned %v, want a corrupt-message CommError for peer 1", errs[0])
			}
			if comm.Classify(errs[1]) != comm.KindAborted {
				t.Fatalf("forging rank: %v, want the group abort", errs[1])
			}
			t.Log(errs[0])
		})
	}
}

func TestSpecAndPlantedSources(t *testing.T) {
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: 128, NumEdges: 512, Seed: 77}
	ps := gen.PlantedSpec{NumVertices: 128, NumEdges: 512, NumCommunities: 4, IntraProb: 0.8, Seed: 7}
	for _, src := range []EdgeSource{SpecSource{Spec: spec}, PlantedSource{Spec: ps}} {
		err := comm.RunLocal(3, func(c *comm.Comm) error {
			ctx := NewCtx(c, 1)
			pt := partition.NewVertexBlock(128, 3)
			g, _, err := Build(ctx, src, pt)
			if err != nil {
				return err
			}
			return g.Validate()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestListSourceBounds(t *testing.T) {
	s := ListSource{Edges: edge.List{1, 2, 3, 4}}
	if _, err := s.ReadChunk(0, 3); err == nil {
		t.Fatal("over-read accepted")
	}
	chunk, err := s.ReadChunk(1, 2)
	if err != nil || chunk.Src(0) != 3 || chunk.Dst(0) != 4 {
		t.Fatalf("chunk = %v, %v", chunk, err)
	}
}

func TestPuLPPartitionedBuild(t *testing.T) {
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: 400, NumEdges: 3000, Seed: 14}
	edges, err := spec.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	ref := seq.FromEdges(spec.NumVertices, edges)
	for _, p := range []int{1, 2, 4} {
		err := comm.RunLocal(p, func(c *comm.Comm) error {
			ctx := NewCtx(c, 1)
			src := ListSource{Edges: edges}
			pt, err := MakePartitioner(ctx, src, partition.PuLPKind, spec.NumVertices, 9)
			if err != nil {
				return err
			}
			g, _, err := Build(ctx, src, pt)
			if err != nil {
				return err
			}
			if err := g.Validate(); err != nil {
				return err
			}
			for v := uint32(0); v < g.NLoc; v++ {
				gid := g.GlobalID(v)
				if g.OutDegree(v) != ref.OutDeg(gid) {
					return fmt.Errorf("vertex %d degree mismatch under pulp", gid)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}
