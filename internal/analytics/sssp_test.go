package analytics

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/partition"
	"repro/internal/seq"
)

func TestSSSPMatchesDijkstra(t *testing.T) {
	for _, tg := range makeTestGraphs(t) {
		for _, wname := range []string{"unit", "hashed"} {
			var wDist WeightFunc
			var wSeq func(u, v uint32) uint64
			if wname == "unit" {
				wDist = UnitWeights
				wSeq = func(u, v uint32) uint64 { return 1 }
			} else {
				wDist = HashWeights(5, 9)
				wSeq = func(u, v uint32) uint64 { return HashWeights(5, 9)(u, v) }
			}
			for _, root := range []uint32{0, tg.n / 2} {
				want := seq.Dijkstra(tg.ref, root, wSeq)
				root := root
				runConfigs(t, tg, func(ctx *core.Ctx, g *core.Graph) error {
					res, err := SSSP(ctx, g, root, wDist)
					if err != nil {
						return err
					}
					global, err := core.Gather(ctx, g, res.Dist)
					if err != nil {
						return err
					}
					for v := range want {
						if global[v] != want[v] {
							return fmt.Errorf("%s root=%d: dist[%d] = %d, want %d",
								wname, root, v, global[v], want[v])
						}
					}
					return nil
				})
			}
		}
	}
}

func TestSSSPUnitEqualsBFS(t *testing.T) {
	tg := makeTestGraphs(t)[4] // rmat
	runConfigs(t, tg, func(ctx *core.Ctx, g *core.Graph) error {
		ss, err := SSSP(ctx, g, 0, UnitWeights)
		if err != nil {
			return err
		}
		bf, err := BFS(ctx, g, 0, Forward)
		if err != nil {
			return err
		}
		for v := range ss.Dist {
			wantInf := bf.Levels[v] < 0
			gotInf := ss.Dist[v] == InfDistance
			if wantInf != gotInf {
				return fmt.Errorf("reachability disagrees at local %d", v)
			}
			if !gotInf && ss.Dist[v] != uint64(bf.Levels[v]) {
				return fmt.Errorf("unit SSSP %d vs BFS level %d", ss.Dist[v], bf.Levels[v])
			}
		}
		if ss.Reached != bf.Reached {
			return fmt.Errorf("Reached %d vs BFS %d", ss.Reached, bf.Reached)
		}
		return nil
	})
}

func TestSSSPRootValidation(t *testing.T) {
	err := comm.RunLocal(2, func(c *comm.Comm) error {
		ctx := core.NewCtx(c, 1)
		g, _, err := core.Build(ctx, core.ListSource{Edges: edge.List{0, 1}},
			partition.NewVertexBlock(2, 2))
		if err != nil {
			return err
		}
		if _, err := SSSP(ctx, g, 99, UnitWeights); err == nil {
			return fmt.Errorf("out-of-range root accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHashWeightsProperties(t *testing.T) {
	w := HashWeights(3, 10)
	for u := uint32(0); u < 50; u++ {
		for v := uint32(0); v < 50; v += 7 {
			x := w(u, v)
			if x < 1 || x > 10 {
				t.Fatalf("weight(%d,%d) = %d out of [1,10]", u, v, x)
			}
			if x != w(u, v) {
				t.Fatalf("weight(%d,%d) not deterministic", u, v)
			}
		}
	}
	// Degenerate maxW.
	if got := HashWeights(3, 0)(1, 2); got != 1 {
		t.Fatalf("maxW=0 weight = %d", got)
	}
}

// TestWeighRowMatchesHashWeights: the row filler's in-line hash equals the
// HashWeights closure edge for edge, out-rows (v → u) and in-rows (u → v),
// on both of its paths (mask for a power-of-two max, divide otherwise) and
// on the closure path, with the sum of the row.
func TestWeighRowMatchesHashWeights(t *testing.T) {
	tg := makeTestGraphs(t)[4] // rmat
	err := comm.RunLocal(2, func(c *comm.Comm) error {
		g, err := buildShard(core.NewCtx(c, 1), tg, partition.Random)
		if err != nil {
			return err
		}
		for _, seed := range []uint64{0, 7, 0x9e3779b97f4a7c15} {
			for _, maxW := range []uint64{0, 1, 7, 8, 64, 1 << 33} {
				want := HashWeights(seed, maxW)
				for _, w := range []edgeWeights{{seed: seed, max: maxW}, {fn: want}} {
					for v := uint32(0); v < g.NLoc; v++ {
						out, in := g.OutNeighbors(v), g.InNeighbors(v)
						ow, iw := make([]uint64, len(out)), make([]float64, len(in))
						osum, isum := weighRow(w, g, v, out, true, ow), weighRow(w, g, v, in, false, iw)
						var wantO, wantI uint64
						for i, u := range out {
							x := want(g.GlobalID(v), g.GlobalID(u))
							if ow[i] != x {
								return fmt.Errorf("seed %d max %d: w(%d→%d) = %d, HashWeights %d", seed, maxW, g.GlobalID(v), g.GlobalID(u), ow[i], x)
							}
							wantO += x
						}
						for i, u := range in {
							x := want(g.GlobalID(u), g.GlobalID(v))
							if iw[i] != float64(x) {
								return fmt.Errorf("seed %d max %d: w(%d→%d) = %v, HashWeights %d", seed, maxW, g.GlobalID(u), g.GlobalID(v), iw[i], x)
							}
							wantI += x
						}
						if osum != wantO || isum != wantI {
							return fmt.Errorf("seed %d max %d: row sums %d/%d, want %d/%d", seed, maxW, osum, isum, wantO, wantI)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
