package analytics

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/gen"
	"repro/internal/partition"
)

// buildHaloReference is BuildHalo as it stood before the destination masks:
// a counting pass and a fill pass, each rescanning every selected edge of
// every owned vertex with a per-vertex seen set, run on one thread. It is
// the oracle the four retained slices are pinned to.
func buildHaloReference(ctx *core.Ctx, g *core.Graph, dirs Dirs) (sendVerts []uint32, sendCounts []int, recvLids []uint32, recvSegs []int, err error) {
	p := ctx.Size()
	forEachDest := func(v uint32, emit func(dest int)) {
		seen := make([]bool, p)
		scan := func(nbrs []uint32) {
			for _, u := range nbrs {
				if u < g.NLoc {
					continue
				}
				if d := int(g.GhostOwner[u-g.NLoc]); !seen[d] {
					seen[d] = true
					emit(d)
				}
			}
		}
		if dirs.Out {
			scan(g.OutNeighbors(v))
		}
		if dirs.In {
			scan(g.InNeighbors(v))
		}
	}
	sendCounts = make([]int, p)
	for v := uint32(0); v < g.NLoc; v++ {
		forEachDest(v, func(d int) { sendCounts[d]++ })
	}
	cursor := make([]int, p)
	total := 0
	for d, c := range sendCounts {
		cursor[d] = total
		total += c
	}
	sendVerts = make([]uint32, total)
	for v := uint32(0); v < g.NLoc; v++ {
		forEachDest(v, func(d int) {
			sendVerts[cursor[d]] = v
			cursor[d]++
		})
	}
	gids := make([]uint32, total)
	for i, v := range sendVerts {
		gids[i] = g.GlobalID(v)
	}
	recvGids, recvSegs, err := comm.Alltoallv(ctx.Comm, gids, sendCounts)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	recvLids = make([]uint32, len(recvGids))
	for i, gid := range recvGids {
		recvLids[i] = g.LocalID(gid)
	}
	return sendVerts, sendCounts, recvLids, recvSegs, nil
}

// TestExchangeRejectsForgedSegments forges one halo Exchange at p = 3 on a
// graph where rank 0 ghosts 20 vertices of each other rank: rank 1 sends
// rank 0 one value too few and rank 2 one too many, so the total still
// matches rank 0's queue. Rank 0 must fail with a corrupt-message CommError
// naming rank 1, the first peer whose segment is off, instead of scattering
// rank 2's values into rank 1's slots.
func TestExchangeRejectsForgedSegments(t *testing.T) {
	var el edge.List
	for v := uint32(0); v < 60; v++ {
		el.Push(v, (v+20)%60)
	}
	resize := func(delta int) func(int, []byte) []byte {
		return func(round int, msg []byte) []byte {
			if round != 1 { // after the halo's gid round
				return nil
			}
			return append(slices.Clip(msg), 0, 0, 0, 0)[:len(msg)+4*delta]
		}
	}
	errs, forged := runForgedGroup(testGraph{name: "ring", n: 60, edges: el},
		[]func(int, []byte) []byte{nil, resize(-1), resize(1)},
		func(ctx *core.Ctx, g *core.Graph) error {
			h, err := BuildHalo(ctx, g, DirsBoth)
			if err != nil {
				return err
			}
			return Exchange(ctx, h, make([]uint32, g.NTotal()))
		})
	if forged != 2 {
		t.Fatalf("%d forged segments sent, want 2", forged)
	}
	wantCorruptFrom1(t, errs)
}

// TestBuildHaloMatchesReference pins the halo's four retained slices,
// element for element, to the reference build: at 1 to 8 ranks and on a
// 65-rank group (destination sets wider than one mask word), one and three
// threads per rank, both direction sets, block and random partitionings.
func TestBuildHaloMatchesReference(t *testing.T) {
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: 520, NumEdges: 6000, Seed: 9}
	list, err := spec.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 3, 4, 8, 65} {
		for _, kind := range []partition.Kind{partition.VertexBlock, partition.Random} {
			for _, threads := range []int{1, 3} {
				t.Run(fmt.Sprintf("p=%d/%v/threads=%d", p, kind, threads), func(t *testing.T) {
					err := comm.RunLocal(p, func(c *comm.Comm) error {
						ctx := core.NewCtx(c, threads)
						src := core.ListSource{Edges: list}
						pt, err := core.MakePartitioner(ctx, src, kind, spec.NumVertices, 123)
						if err != nil {
							return err
						}
						g, _, err := core.Build(ctx, src, pt)
						if err != nil {
							return err
						}
						for _, dirs := range []Dirs{DirsOut, DirsBoth} {
							h, err := BuildHalo(ctx, g, dirs)
							if err != nil {
								return err
							}
							sendVerts, sendCounts, recvLids, recvSegs, err := buildHaloReference(ctx, g, dirs)
							if err != nil {
								return err
							}
							if !slices.Equal(h.sendVerts, sendVerts) || !slices.Equal(h.sendCounts, sendCounts) ||
								!slices.Equal(h.recvLids, recvLids) || !slices.Equal(h.recvSegs, recvSegs) {
								return fmt.Errorf("rank %d dirs %+v: halo differs from the reference build", c.Rank(), dirs)
							}
							if p > 64 {
								toLast, err := comm.Allreduce(ctx.Comm, uint64(sendCounts[64]), comm.OpSum)
								if err != nil {
									return err
								}
								if toLast == 0 {
									return fmt.Errorf("dirs %+v: nothing ships to rank 64, the second mask word is not exercised", dirs)
								}
							}
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
}

// TestBuildHaloRejectsForgedGids forges the halo's one gid round, where
// rank 1 lists for rank 0 the vertices whose values it will ship. On
// forgedPath rank 1's honest list is vertex 32, rank 0's one ghost. A gid
// rank 0 does not know, one it owns, a ghost listed twice — which would
// leave another ghost without a slot of its own — and, at p = 3 with an
// extra edge 2 -> 60, rank 0's ghost owned by rank 2, each fail the build
// with a corrupt-message CommError naming the forger.
func TestBuildHaloRejectsForgedGids(t *testing.T) {
	gids := func(vs ...uint32) func(int, []byte) []byte {
		return func(round int, _ []byte) []byte {
			if round != 0 {
				return nil
			}
			var b []byte
			for _, v := range vs {
				b = binary.LittleEndian.AppendUint32(b, v)
			}
			return b
		}
	}
	third := forgedPath()
	third.edges.Push(2, 60)
	for _, f := range []struct {
		name  string
		tg    testGraph
		p     int
		forge func(int, []byte) []byte
	}{
		{"unknown gid", forgedPath(), 2, gids(50)},
		{"owned gid", forgedPath(), 2, gids(5)},
		{"ghost listed twice", forgedPath(), 2, gids(32, 32)},
		{"ghost of a third rank", third, 3, gids(60)},
	} {
		t.Run(f.name, func(t *testing.T) {
			forges := make([]func(int, []byte) []byte, f.p)
			forges[1] = f.forge
			errs, forged := runForgedGroup(f.tg, forges, func(ctx *core.Ctx, g *core.Graph) error {
				_, err := BuildHalo(ctx, g, DirsBoth)
				return err
			})
			wantForgeryOutcome(t, errs, forged, false)
		})
	}
}
