package analytics

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/seq"
)

// TestDeltaSSSPMatchesDijkstra sweeps Δ across the degenerate extremes and
// the auto heuristic: Δ=1 (near-Dijkstra bucket granularity), Δ=0 (auto =
// mean weight), and a Δ past every path length (degenerates to
// Bellman-Ford with one fat bucket). All must match the sequential oracle
// bit-for-bit at every rank count — distances are the fixed point of the
// same monotone relaxations regardless of schedule.
func TestDeltaSSSPMatchesDijkstra(t *testing.T) {
	wDist := HashWeights(5, 9)
	wSeq := func(u, v uint32) uint64 { return HashWeights(5, 9)(u, v) }
	for _, tg := range makeTestGraphs(t) {
		want := seq.Dijkstra(tg.ref, 0, wSeq)
		for _, delta := range []uint64{1, 0, 1 << 40} {
			delta := delta
			runConfigs(t, tg, func(ctx *core.Ctx, g *core.Graph) error {
				res, err := SSSPDelta(ctx, g, 0, wDist, delta)
				if err != nil {
					return err
				}
				if res.Delta == 0 || (delta != 0 && res.Delta != delta) {
					return fmt.Errorf("delta=%d: result Delta = %d", delta, res.Delta)
				}
				global, err := core.Gather(ctx, g, res.Dist)
				if err != nil {
					return err
				}
				for v := range want {
					if global[v] != want[v] {
						return fmt.Errorf("delta=%d: dist[%d] = %d, want %d", delta, v, global[v], want[v])
					}
				}
				return nil
			})
		}
	}
}

// TestDeltaOneFatBucketIsBellmanFord pins the round-based baseline the
// harness's delta experiment measures against: at Δ = 1<<40 every finite
// distance files in bucket 0, so the run is Bellman-Ford rounds — one
// bucket, every edge light, no heavy phase work — and still lands on
// Dijkstra's distances.
func TestDeltaOneFatBucketIsBellmanFord(t *testing.T) {
	tg := makeTestGraphs(t)[4] // rmat
	w := HashWeights(7, 8)
	want := seq.Dijkstra(tg.ref, 0, func(u, v uint32) uint64 { return w(u, v) })
	var wantReached uint64
	for _, d := range want {
		if d != InfDistance {
			wantReached++
		}
	}
	runConfigs(t, tg, func(ctx *core.Ctx, g *core.Graph) error {
		res, err := SSSPDelta(ctx, g, 0, w, 1<<40)
		if err != nil {
			return err
		}
		if res.Buckets.Buckets != 1 || res.Buckets.HeavyRelaxations != 0 {
			return fmt.Errorf("Δ=1<<40 ran %d buckets with %d heavy relaxations, want 1 and 0",
				res.Buckets.Buckets, res.Buckets.HeavyRelaxations)
		}
		if res.Buckets.InnerRounds == 0 || res.Buckets.LightRelaxations == 0 {
			return fmt.Errorf("Δ=1<<40 reports no light work: %+v", res.Buckets)
		}
		if res.Reached != wantReached {
			return fmt.Errorf("Reached = %d, want %d", res.Reached, wantReached)
		}
		global, err := core.Gather(ctx, g, res.Dist)
		if err != nil {
			return err
		}
		if !slices.Equal(global, want) {
			return fmt.Errorf("Δ=1<<40 distances differ from Dijkstra's")
		}
		return nil
	})
}

// TestDeltaUnitWeightsEqualsBFS pins the degenerate schedule: unit weights
// with Δ=1 settle exactly one BFS level per bucket, so distances equal BFS
// depths bit-for-bit.
func TestDeltaUnitWeightsEqualsBFS(t *testing.T) {
	tg := makeTestGraphs(t)[4] // rmat
	runConfigs(t, tg, func(ctx *core.Ctx, g *core.Graph) error {
		return diffDeltaUnitVsBFS(ctx, g)
	})
}

// diffDeltaUnitVsBFS runs Δ=1 unit-weight Δ-stepping and BFS on the same
// graph and compares depth-for-depth.
func diffDeltaUnitVsBFS(ctx *core.Ctx, g *core.Graph) error {
	ss, err := SSSPDelta(ctx, g, 0, UnitWeights, 1)
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
			return fmt.Errorf("unit delta %d vs BFS level %d at local %d", ss.Dist[v], bf.Levels[v], v)
		}
	}
	if ss.Reached != bf.Reached {
		return fmt.Errorf("Reached %d vs BFS %d", ss.Reached, bf.Reached)
	}
	return nil
}

// TestDeltaUnitWeightsEqualsBFSTCP reruns the Δ=1/BFS pin over a real TCP
// mesh: same kernel, real transport framing under -race.
func TestDeltaUnitWeightsEqualsBFSTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP mesh in -short mode")
	}
	const p = 3
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: 200, NumEdges: 1600, Seed: 5}
	var mu sync.Mutex
	failures := make(map[int]string)
	errs, _ := runScheduledTCPRanks(t, p, comm.FaultSchedule{}, comm.RetryPolicy{}, func(ctx *core.Ctx) error {
		src := core.SpecSource{Spec: spec}
		pt, err := core.MakePartitioner(ctx, src, partition.Random, spec.NumVertices, 123)
		if err != nil {
			return err
		}
		g, _, err := core.Build(ctx, src, pt)
		if err != nil {
			return err
		}
		if err := diffDeltaUnitVsBFS(ctx, g); err != nil {
			mu.Lock()
			failures[ctx.Rank()] = err.Error()
			mu.Unlock()
			return err
		}
		return nil
	})
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
	for r, f := range failures {
		t.Errorf("rank %d equivalence: %s", r, f)
	}
}

// TestDeltaRejectsForgedRounds drives Δ-stepping's receive path with a
// forged stream: rank 1 builds the halo with rank 0 and joins the prologue's
// reduce, then plays claim rounds by hand. Rank 0 roots the query at
// isolated vertex 0, so its first light sub-round settles the root alone,
// and a forger that names bucket 5 as the one it holds walks the group there
// through the heavy phase. Each forgery must fail rank 0's query with a
// corrupt-message CommError naming rank 1.
func TestDeltaRejectsForgedRounds(t *testing.T) {
	// Vertex-block over 64 vertices: rank 0 owns 0..31, rank 1 ghosts 31
	// through the 31-32 edge, so rank 0's queue for rank 1 is one slot.
	var path edge.List
	for v := uint32(1); v < 40; v++ {
		path.Push(v, v+1)
	}
	tg := testGraph{name: "path", n: 64, edges: path}
	const delta = 4
	idle := ctlWord(0, ctlNone)
	toBucket5 := ctlWord(0, 5)
	forgeries := []struct {
		name string
		// rounds are rank 1's segments for rank 0, one per claim round.
		rounds [][]uint64
	}{
		{"slot out of range", [][]uint64{{ctlWord(1, 0), 1 << 32}}},
		{"no control word", [][]uint64{nil}},
		{"claims from a rank that relaxed nothing", [][]uint64{{idle, 0}}},
		{"wide claims cut short", [][]uint64{{ctlWord(1, 0) | ctlWide, 0}}},
		{"distance below the bucket's floor", [][]uint64{{toBucket5}, {toBucket5}, {ctlWord(1, 0) | ctlWide, 0, 5*delta - 1}}},
	}
	for _, f := range forgeries {
		t.Run(f.name, func(t *testing.T) {
			trs := comm.NewLocalGroup(2)
			comms := []*comm.Comm{comm.New(trs[0]), comm.New(trs[1])}
			errs := comm.RunOnAll(comms, func(c *comm.Comm) error {
				ctx := core.NewCtx(c, 1)
				g, err := buildShard(ctx, tg, partition.VertexBlock)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					_, err := SSSPDelta(ctx, g, 0, UnitWeights, delta)
					return err
				}
				if _, _, err := haloFor(ctx, g, DirsBoth); err != nil {
					return err
				}
				if _, err := comm.AllreduceSlice(c, []uint64{0, 0}, comm.OpSum); err != nil {
					return err
				}
				// Rank 0 fails on the forged round and aborts the group, which
				// catches this rank leaving that round or entering the next; a
				// next round that completes means rank 0 swallowed the forgery.
				for _, seg := range f.rounds {
					if _, _, err = comm.Alltoallv(c, append(seg, idle), []int{len(seg), 1}); err != nil {
						break
					}
				}
				if err == nil {
					if _, _, err = comm.Alltoallv(c, []uint64{idle, idle}, []int{1, 1}); err == nil {
						return errors.New("rank 0 accepted the forged round")
					}
				}
				if comm.Classify(err) != comm.KindAborted {
					return err
				}
				return nil
			})
			if errs[1] != nil {
				t.Fatalf("forging rank: %v", errs[1])
			}
			var ce *comm.CommError
			if !errors.As(errs[0], &ce) || ce.Kind != comm.KindCorrupt || ce.Peer != 1 {
				t.Fatalf("rank 0 returned %v, want a corrupt-message CommError for peer 1", errs[0])
			}
			t.Log(errs[0])
		})
	}
}

// TestKCoreExactMatchesSequential compares the exact peel against the
// quadratic oracle on every test graph and rank count.
func TestKCoreExactMatchesSequential(t *testing.T) {
	for _, tg := range makeTestGraphs(t) {
		want := seq.Coreness(tg.ref)
		var wantMax uint32
		for _, c := range want {
			if c > wantMax {
				wantMax = c
			}
		}
		runConfigs(t, tg, func(ctx *core.Ctx, g *core.Graph) error {
			res, err := KCoreExact(ctx, g)
			if err != nil {
				return err
			}
			global, err := core.Gather(ctx, g, res.Coreness)
			if err != nil {
				return err
			}
			for v := range want {
				if global[v] != want[v] {
					return fmt.Errorf("coreness[%d] = %d, want %d", v, global[v], want[v])
				}
			}
			if res.MaxCore != wantMax {
				return fmt.Errorf("MaxCore = %d, want %d", res.MaxCore, wantMax)
			}
			return nil
		})
	}
}

// TestKCoreExactRefinesApprox sanity-checks the relationship between the
// two k-core analytics: the approximate run's output is an upper bound.
func TestKCoreExactRefinesApprox(t *testing.T) {
	tg := makeTestGraphs(t)[4] // rmat
	runConfigs(t, tg, func(ctx *core.Ctx, g *core.Graph) error {
		exact, err := KCoreExact(ctx, g)
		if err != nil {
			return err
		}
		approx, err := KCoreApprox(ctx, g, 8)
		if err != nil {
			return err
		}
		for v := range exact.Coreness {
			if exact.Coreness[v] > approx.CorenessUB[v] {
				return fmt.Errorf("vertex %d: exact coreness %d above approx bound %d",
					v, exact.Coreness[v], approx.CorenessUB[v])
			}
		}
		return nil
	})
}

// TestPageRankWeightedMatchesSequential compares against the sequential
// weighted oracle under hashed weights.
func TestPageRankWeightedMatchesSequential(t *testing.T) {
	w := HashWeights(7, 8)
	for _, tg := range makeTestGraphs(t) {
		want := seq.PageRankWeighted(tg.ref, 10, 0.85, func(u, v uint32) uint64 { return w(u, v) })
		runConfigs(t, tg, func(ctx *core.Ctx, g *core.Graph) error {
			res, err := PageRankWeighted(ctx, g, DefaultPageRank(), w)
			if err != nil {
				return err
			}
			global, err := core.Gather(ctx, g, res.Scores)
			if err != nil {
				return err
			}
			sum := 0.0
			for v := range want {
				if math.Abs(global[v]-want[v]) > 1e-9 {
					return fmt.Errorf("WPR[%d] = %v, want %v", v, global[v], want[v])
				}
				sum += global[v]
			}
			if math.Abs(sum-1) > 1e-9 {
				return fmt.Errorf("weighted PageRank mass %v, want 1", sum)
			}
			return nil
		})
	}
}

// TestPageRankWeightedUnitEqualsPageRank pins the degenerate case: uniform
// weights make the weighted pull identical to the unweighted one (same
// arithmetic, same order), so the scores must match exactly.
func TestPageRankWeightedUnitEqualsPageRank(t *testing.T) {
	tg := makeTestGraphs(t)[4] // rmat
	runConfigs(t, tg, func(ctx *core.Ctx, g *core.Graph) error {
		wres, err := PageRankWeighted(ctx, g, DefaultPageRank(), UnitWeights)
		if err != nil {
			return err
		}
		ures, err := PageRank(ctx, g, DefaultPageRank())
		if err != nil {
			return err
		}
		for v := range wres.Scores {
			if math.Abs(wres.Scores[v]-ures.Scores[v]) > 1e-12 {
				return fmt.Errorf("unit-weight WPR[%d] = %v, PageRank %v", v, wres.Scores[v], ures.Scores[v])
			}
		}
		return nil
	})
}
