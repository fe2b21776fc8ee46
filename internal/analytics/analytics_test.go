package analytics

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/seq"
)

// testGraph bundles an edge list with its sequential oracle.
type testGraph struct {
	name  string
	n     uint32
	edges edge.List
	ref   *seq.Graph
}

func makeTestGraphs(t *testing.T) []testGraph {
	t.Helper()
	var gs []testGraph
	add := func(name string, n uint32, edges edge.List) {
		gs = append(gs, testGraph{name: name, n: n, edges: edges, ref: seq.FromEdges(n, edges)})
	}

	// Small structured graphs.
	add("chain", 8, edge.List{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7})
	add("cycle+tail", 7, edge.List{0, 1, 1, 2, 2, 0, 2, 3, 3, 4, 5, 6})
	add("star", 9, func() edge.List {
		var l edge.List
		for i := uint32(1); i < 9; i++ {
			l.Push(i, 0)
		}
		return l
	}())
	add("selfloops", 4, edge.List{0, 0, 1, 1, 0, 1, 1, 0, 2, 3})

	// Random graphs of both families.
	rmat := gen.Spec{Kind: gen.RMAT, NumVertices: 200, NumEdges: 1600, Seed: 5}
	rl, err := rmat.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	add("rmat", rmat.NumVertices, rl)
	er := gen.Spec{Kind: gen.ER, NumVertices: 150, NumEdges: 700, Seed: 6}
	el, err := er.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	add("er", er.NumVertices, el)

	// A sparse disconnected graph with several SCCs and WCCs.
	add("multi", 20, edge.List{
		0, 1, 1, 0, // SCC {0,1}
		2, 3, 3, 4, 4, 2, // SCC {2,3,4}
		4, 5, 5, 6, // tail
		8, 9, 9, 8, 9, 10, // SCC {8,9} + tail (separate WCC)
		12, 12, // self loop (separate WCC)
		// 13..19 isolated
	})
	return gs
}

// runConfigs exercises a body over rank counts × partitionings.
func runConfigs(t *testing.T, tg testGraph, body func(ctx *core.Ctx, g *core.Graph) error) {
	t.Helper()
	for _, p := range []int{1, 2, 4} {
		for _, kind := range []partition.Kind{partition.VertexBlock, partition.Random} {
			p, kind := p, kind
			t.Run(fmt.Sprintf("%s/p=%d/%v", tg.name, p, kind), func(t *testing.T) {
				err := comm.RunLocal(p, func(c *comm.Comm) error {
					ctx := core.NewCtx(c, 2)
					src := core.ListSource{Edges: tg.edges}
					pt, err := core.MakePartitioner(ctx, src, kind, tg.n, 123)
					if err != nil {
						return err
					}
					g, _, err := core.Build(ctx, src, pt)
					if err != nil {
						return err
					}
					return body(ctx, g)
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestPageRankMatchesSequential(t *testing.T) {
	for _, tg := range makeTestGraphs(t) {
		want := seq.PageRank(tg.ref, 10, 0.85)
		runConfigs(t, tg, func(ctx *core.Ctx, g *core.Graph) error {
			res, err := PageRank(ctx, g, DefaultPageRank())
			if err != nil {
				return err
			}
			global, err := core.Gather(ctx, g, res.Scores)
			if err != nil {
				return err
			}
			for v := range want {
				if math.Abs(global[v]-want[v]) > 1e-9 {
					return fmt.Errorf("PR[%d] = %v, want %v", v, global[v], want[v])
				}
			}
			return nil
		})
	}
}

func TestPageRankToleranceStopsEarly(t *testing.T) {
	tg := makeTestGraphs(t)[0] // chain
	runConfigs(t, tg, func(ctx *core.Ctx, g *core.Graph) error {
		opts := PageRankOptions{Iterations: 1000, Damping: 0.85, Tolerance: 1e-6}
		res, err := PageRank(ctx, g, opts)
		if err != nil {
			return err
		}
		if res.Iterations >= 1000 {
			return fmt.Errorf("tolerance did not stop early: %d iterations", res.Iterations)
		}
		return nil
	})
}

func TestPageRankRebuildQueuesSameResult(t *testing.T) {
	tg := makeTestGraphs(t)[4] // rmat
	want := seq.PageRank(tg.ref, 5, 0.85)
	runConfigs(t, tg, func(ctx *core.Ctx, g *core.Graph) error {
		opts := PageRankOptions{Iterations: 5, Damping: 0.85, RebuildQueues: true}
		res, err := PageRank(ctx, g, opts)
		if err != nil {
			return err
		}
		global, err := core.Gather(ctx, g, res.Scores)
		if err != nil {
			return err
		}
		for v := range want {
			if math.Abs(global[v]-want[v]) > 1e-9 {
				return fmt.Errorf("PR[%d] = %v, want %v", v, global[v], want[v])
			}
		}
		return nil
	})
}

func TestLabelPropMatchesSequential(t *testing.T) {
	for _, tg := range makeTestGraphs(t) {
		for _, iters := range []int{1, 3, 10} {
			want := seq.LabelProp(tg.ref, iters)
			iters := iters
			runConfigs(t, tg, func(ctx *core.Ctx, g *core.Graph) error {
				res, err := LabelProp(ctx, g, LabelPropOptions{Iterations: iters})
				if err != nil {
					return err
				}
				global, err := core.Gather(ctx, g, res.Labels)
				if err != nil {
					return err
				}
				for v := range want {
					if global[v] != want[v] {
						return fmt.Errorf("iters=%d LP[%d] = %d, want %d", iters, v, global[v], want[v])
					}
				}
				return nil
			})
		}
	}
}

func TestBFSMatchesSequential(t *testing.T) {
	dirs := map[Dir]seq.Dir{Forward: seq.Forward, Backward: seq.Backward, Und: seq.Und}
	for _, tg := range makeTestGraphs(t) {
		for dDist, dSeq := range dirs {
			roots := []uint32{0, tg.n - 1, tg.n / 2}
			for _, root := range roots {
				want := seq.BFS(tg.ref, root, dSeq)
				dDist, root := dDist, root
				runConfigs(t, tg, func(ctx *core.Ctx, g *core.Graph) error {
					res, err := BFS(ctx, g, root, dDist)
					if err != nil {
						return err
					}
					global, err := core.Gather(ctx, g, res.Levels)
					if err != nil {
						return err
					}
					for v := range want {
						if int64(global[v]) != want[v] {
							return fmt.Errorf("dir=%v root=%d: level[%d] = %d, want %d",
								dDist, root, v, global[v], want[v])
						}
					}
					return nil
				})
			}
		}
	}
}

func TestBFSRootOutOfRange(t *testing.T) {
	tg := makeTestGraphs(t)[0]
	err := comm.RunLocal(2, func(c *comm.Comm) error {
		ctx := core.NewCtx(c, 1)
		src := core.ListSource{Edges: tg.edges}
		pt := partition.NewVertexBlock(tg.n, 2)
		g, _, err := core.Build(ctx, src, pt)
		if err != nil {
			return err
		}
		if _, err := BFS(ctx, g, tg.n+5, Forward); err == nil {
			return fmt.Errorf("out-of-range root accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// samePartition checks two labelings induce identical partitions.
func samePartition(a, b []uint32) error {
	if len(a) != len(b) {
		return fmt.Errorf("length mismatch %d vs %d", len(a), len(b))
	}
	fwd := map[uint32]uint32{}
	rev := map[uint32]uint32{}
	for i := range a {
		if mapped, ok := fwd[a[i]]; ok {
			if mapped != b[i] {
				return fmt.Errorf("vertex %d: label %d maps to both %d and %d", i, a[i], mapped, b[i])
			}
		} else {
			fwd[a[i]] = b[i]
		}
		if mapped, ok := rev[b[i]]; ok {
			if mapped != a[i] {
				return fmt.Errorf("vertex %d: label %d maps back to both %d and %d", i, b[i], mapped, a[i])
			}
		} else {
			rev[b[i]] = a[i]
		}
	}
	return nil
}

func TestWCCMatchesSequential(t *testing.T) {
	for _, tg := range makeTestGraphs(t) {
		want := seq.WCC(tg.ref)
		// Oracle largest size.
		sizes := map[uint32]uint64{}
		for _, l := range want {
			sizes[l]++
		}
		var wantLargest uint64
		for _, s := range sizes {
			if s > wantLargest {
				wantLargest = s
			}
		}
		runConfigs(t, tg, func(ctx *core.Ctx, g *core.Graph) error {
			res, err := WCC(ctx, g)
			if err != nil {
				return err
			}
			global, err := core.Gather(ctx, g, res.Labels)
			if err != nil {
				return err
			}
			if err := samePartition(global, want); err != nil {
				return fmt.Errorf("WCC partition: %w", err)
			}
			if res.NumComponents != uint64(len(sizes)) {
				return fmt.Errorf("NumComponents = %d, want %d", res.NumComponents, len(sizes))
			}
			if res.LargestSize != wantLargest {
				return fmt.Errorf("LargestSize = %d, want %d", res.LargestSize, wantLargest)
			}
			return nil
		})
	}
}

func TestSCCMatchesSequential(t *testing.T) {
	for _, tg := range makeTestGraphs(t) {
		want := seq.SCC(tg.ref)
		sizes := map[uint32]uint64{}
		for _, l := range want {
			sizes[l]++
		}
		var wantLargest uint64
		for _, s := range sizes {
			if s > wantLargest {
				wantLargest = s
			}
		}
		runConfigs(t, tg, func(ctx *core.Ctx, g *core.Graph) error {
			res, err := SCC(ctx, g)
			if err != nil {
				return err
			}
			global, err := core.Gather(ctx, g, res.Labels)
			if err != nil {
				return err
			}
			if err := samePartition(global, want); err != nil {
				return fmt.Errorf("SCC partition: %w", err)
			}
			if res.NumComponents != uint64(len(sizes)) {
				return fmt.Errorf("NumComponents = %d, want %d", res.NumComponents, len(sizes))
			}
			if res.LargestSize != wantLargest {
				return fmt.Errorf("LargestSize = %d, want %d", res.LargestSize, wantLargest)
			}
			return nil
		})
	}
}

func TestLargestSCCIsAnSCC(t *testing.T) {
	for _, tg := range makeTestGraphs(t) {
		want := seq.SCC(tg.ref)
		runConfigs(t, tg, func(ctx *core.Ctx, g *core.Graph) error {
			res, err := LargestSCC(ctx, g)
			if err != nil {
				return err
			}
			// Membership flags must match the oracle SCC of the pivot.
			member := make([]uint8, g.NLoc)
			for v := range res.InLargest {
				if res.InLargest[v] {
					member[v] = 1
				}
			}
			global, err := core.Gather(ctx, g, member)
			if err != nil {
				return err
			}
			if res.Size == 0 {
				for v, m := range global {
					if m != 0 {
						return fmt.Errorf("size 0 but vertex %d member", v)
					}
				}
				return nil
			}
			pivotComp := want[res.Pivot]
			var count uint64
			for v, m := range global {
				inOracle := want[v] == pivotComp
				if (m == 1) != inOracle {
					return fmt.Errorf("vertex %d membership %v, oracle %v", v, m == 1, inOracle)
				}
				if m == 1 {
					count++
				}
			}
			if count != res.Size {
				return fmt.Errorf("Size = %d but %d members", res.Size, count)
			}
			return nil
		})
	}
}

func TestHarmonicMatchesSequential(t *testing.T) {
	for _, tg := range makeTestGraphs(t) {
		for _, v := range []uint32{0, tg.n - 1, tg.n / 3} {
			want := seq.Harmonic(tg.ref, v)
			v := v
			runConfigs(t, tg, func(ctx *core.Ctx, g *core.Graph) error {
				got, err := Harmonic(ctx, g, v)
				if err != nil {
					return err
				}
				if math.Abs(got-want) > 1e-9 {
					return fmt.Errorf("HC(%d) = %v, want %v", v, got, want)
				}
				return nil
			})
		}
	}
}

func TestTopDegreeGlobalOrder(t *testing.T) {
	tg := makeTestGraphs(t)[4] // rmat
	// Oracle: global top-5 by und degree, ties to smaller id.
	type cand struct {
		deg uint64
		gid uint32
	}
	cands := make([]cand, tg.n)
	for v := uint32(0); v < tg.n; v++ {
		cands[v] = cand{deg: tg.ref.UndDeg(v), gid: v}
	}
	for i := range cands {
		for j := i + 1; j < len(cands); j++ {
			if cands[j].deg > cands[i].deg || (cands[j].deg == cands[i].deg && cands[j].gid < cands[i].gid) {
				cands[i], cands[j] = cands[j], cands[i]
			}
		}
	}
	want := []uint32{cands[0].gid, cands[1].gid, cands[2].gid, cands[3].gid, cands[4].gid}
	runConfigs(t, tg, func(ctx *core.Ctx, g *core.Graph) error {
		got, err := TopDegree(ctx, g, 5)
		if err != nil {
			return err
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("TopDegree = %v, want %v", got, want)
			}
		}
		return nil
	})
}

func TestHarmonicTopK(t *testing.T) {
	tg := makeTestGraphs(t)[1] // cycle+tail
	runConfigs(t, tg, func(ctx *core.Ctx, g *core.Graph) error {
		scores, err := HarmonicTopK(ctx, g, 3)
		if err != nil {
			return err
		}
		if len(scores) != 3 {
			return fmt.Errorf("got %d scores", len(scores))
		}
		for i := range scores {
			want := seq.Harmonic(tg.ref, scores[i].Vertex)
			if math.Abs(scores[i].Score-want) > 1e-9 {
				return fmt.Errorf("HC(%d) = %v, want %v", scores[i].Vertex, scores[i].Score, want)
			}
			if i > 0 && scores[i].Score > scores[i-1].Score {
				return fmt.Errorf("scores not sorted: %v", scores)
			}
		}
		return nil
	})
}

func TestKCoreMatchesSequential(t *testing.T) {
	for _, tg := range makeTestGraphs(t) {
		const levels = 6
		want := seq.CorenessUB(tg.ref, levels)
		runConfigs(t, tg, func(ctx *core.Ctx, g *core.Graph) error {
			res, err := KCoreApprox(ctx, g, levels)
			if err != nil {
				return err
			}
			global, err := core.Gather(ctx, g, res.CorenessUB)
			if err != nil {
				return err
			}
			for v := range want {
				if global[v] != want[v] {
					return fmt.Errorf("coreness[%d] = %d, want %d", v, global[v], want[v])
				}
			}
			return nil
		})
	}

	// A bound is 2^levels in 32 bits: 31 levels is the most that fits, and
	// a level count outside [1, 31] is refused on every rank.
	tg := makeTestGraphs(t)[4] // rmat
	want := seq.CorenessUB(tg.ref, 31)
	runConfigs(t, tg, func(ctx *core.Ctx, g *core.Graph) error {
		res, err := KCoreApprox(ctx, g, 31)
		if err != nil {
			return err
		}
		global, err := core.Gather(ctx, g, res.CorenessUB)
		if err != nil {
			return err
		}
		if !slices.Equal(global, want) {
			return fmt.Errorf("31 levels: coreness bounds %v, want %v", global, want)
		}
		for _, levels := range []int{-1, 0, 32} {
			if _, err := KCoreApprox(ctx, g, levels); err == nil {
				return fmt.Errorf("KCoreApprox accepted %d levels", levels)
			}
		}
		return nil
	})
}

func TestTopCommunitiesConsistent(t *testing.T) {
	// Planted communities: stats must be identical across configurations
	// and match a sequentially computed oracle from the same labels.
	ps := gen.PlantedSpec{NumVertices: 300, NumEdges: 6000, NumCommunities: 6, IntraProb: 0.9, Seed: 3}
	edges, err := ps.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	ref := seq.FromEdges(ps.NumVertices, edges)
	const iters = 5
	wantLabels := seq.LabelProp(ref, iters)
	// Oracle stats.
	type acc struct{ n, mIn, mCut uint64 }
	oracle := map[uint32]*acc{}
	getA := func(l uint32) *acc {
		a := oracle[l]
		if a == nil {
			a = &acc{}
			oracle[l] = a
		}
		return a
	}
	for v := uint32(0); v < ps.NumVertices; v++ {
		getA(wantLabels[v]).n++
		for _, u := range ref.OutN(v) {
			if wantLabels[u] == wantLabels[v] {
				getA(wantLabels[v]).mIn++
			} else {
				getA(wantLabels[v]).mCut++
				getA(wantLabels[u]).mCut++
			}
		}
	}
	tg := testGraph{name: "planted", n: ps.NumVertices, edges: edges, ref: ref}
	runConfigs(t, tg, func(ctx *core.Ctx, g *core.Graph) error {
		res, err := LabelProp(ctx, g, LabelPropOptions{Iterations: iters})
		if err != nil {
			return err
		}
		stats, err := TopCommunities(ctx, g, res.Labels, 4)
		if err != nil {
			return err
		}
		if len(stats) == 0 {
			return fmt.Errorf("no communities")
		}
		for i, s := range stats {
			a := oracle[s.Label]
			if a == nil {
				return fmt.Errorf("community %d not in oracle", s.Label)
			}
			if s.N != a.n || s.MIn != a.mIn || s.MCut != a.mCut {
				return fmt.Errorf("community %d: got (%d,%d,%d), want (%d,%d,%d)",
					s.Label, s.N, s.MIn, s.MCut, a.n, a.mIn, a.mCut)
			}
			if i > 0 && stats[i-1].N < s.N {
				return fmt.Errorf("stats not sorted by size")
			}
		}
		return nil
	})
}

func TestSizeDistribution(t *testing.T) {
	tg := makeTestGraphs(t)[6] // multi
	want := seq.WCC(tg.ref)
	sizes := map[uint32]uint64{}
	for _, l := range want {
		sizes[l]++
	}
	wantSorted := make([]uint64, 0, len(sizes))
	for _, s := range sizes {
		wantSorted = append(wantSorted, s)
	}
	for i := range wantSorted {
		for j := i + 1; j < len(wantSorted); j++ {
			if wantSorted[j] < wantSorted[i] {
				wantSorted[i], wantSorted[j] = wantSorted[j], wantSorted[i]
			}
		}
	}
	runConfigs(t, tg, func(ctx *core.Ctx, g *core.Graph) error {
		res, err := WCC(ctx, g)
		if err != nil {
			return err
		}
		dist, err := SizeDistribution(ctx, g, res.Labels)
		if err != nil {
			return err
		}
		if len(dist) != len(wantSorted) {
			return fmt.Errorf("distribution has %d entries, want %d: %v", len(dist), len(wantSorted), dist)
		}
		for i := range wantSorted {
			if dist[i] != wantSorted[i] {
				return fmt.Errorf("distribution %v, want %v", dist, wantSorted)
			}
		}
		return nil
	})
}

func TestHaloVolumes(t *testing.T) {
	tg := makeTestGraphs(t)[4] // rmat
	runConfigs(t, tg, func(ctx *core.Ctx, g *core.Graph) error {
		halo, err := BuildHalo(ctx, g, DirsBoth)
		if err != nil {
			return err
		}
		// Total send volume over ranks equals total receive volume, and
		// with one rank both are zero.
		s, err := comm.Allreduce(ctx.Comm, uint64(halo.SendVolume()), comm.OpSum)
		if err != nil {
			return err
		}
		r, err := comm.Allreduce(ctx.Comm, uint64(halo.RecvVolume()), comm.OpSum)
		if err != nil {
			return err
		}
		if s != r {
			return fmt.Errorf("send volume %d != recv volume %d", s, r)
		}
		if ctx.Size() == 1 && s != 0 {
			return fmt.Errorf("single rank has halo volume %d", s)
		}
		// Receive volume is bounded by ghost count (each ghost updated at
		// most once per direction set).
		if uint32(halo.RecvVolume()) > g.NGst {
			return fmt.Errorf("recv volume %d exceeds ghosts %d", halo.RecvVolume(), g.NGst)
		}
		return nil
	})
}

func TestExchangeAgainstSimpleGhostExchange(t *testing.T) {
	// The tuned halo must produce exactly the same ghost state as the
	// obviously correct core.GhostExchangeU32 for both-direction halos...
	// for ghosts the halo covers. Ghosts it does not cover are ghosts with
	// no local edge in the covered directions, which cannot exist for
	// DirsBoth.
	tg := makeTestGraphs(t)[4]
	runConfigs(t, tg, func(ctx *core.Ctx, g *core.Graph) error {
		halo, err := BuildHalo(ctx, g, DirsBoth)
		if err != nil {
			return err
		}
		a := make([]uint32, g.NTotal())
		b := make([]uint32, g.NTotal())
		for v := uint32(0); v < g.NLoc; v++ {
			a[v] = g.GlobalID(v) * 7
			b[v] = g.GlobalID(v) * 7
		}
		if err := Exchange(ctx, halo, a); err != nil {
			return err
		}
		if err := core.GhostExchangeU32(ctx, g, b); err != nil {
			return err
		}
		for i := range a {
			if a[i] != b[i] {
				return fmt.Errorf("halo state diverges at lid %d: %d vs %d", i, a[i], b[i])
			}
		}
		return nil
	})
}

func TestWCCSingleStageMatchesMultistep(t *testing.T) {
	for _, tg := range makeTestGraphs(t) {
		want := seq.WCC(tg.ref)
		runConfigs(t, tg, func(ctx *core.Ctx, g *core.Graph) error {
			res, err := WCCSingleStage(ctx, g)
			if err != nil {
				return err
			}
			global, err := core.Gather(ctx, g, res.Labels)
			if err != nil {
				return err
			}
			// Single-stage labels are exactly the component minima.
			for v := range want {
				if global[v] != want[v] {
					return fmt.Errorf("single-stage WCC[%d] = %d, want %d", v, global[v], want[v])
				}
			}
			return nil
		})
	}
}

func TestLabelPropRandomTiesDeterministic(t *testing.T) {
	tg := makeTestGraphs(t)[4] // rmat
	var first []uint32
	for trial := 0; trial < 2; trial++ {
		err := comm.RunLocal(2, func(c *comm.Comm) error {
			ctx := core.NewCtx(c, 2)
			src := core.ListSource{Edges: tg.edges}
			pt := partition.NewVertexBlock(tg.n, 2)
			g, _, err := core.Build(ctx, src, pt)
			if err != nil {
				return err
			}
			res, err := LabelProp(ctx, g, LabelPropOptions{Iterations: 5, RandomTies: true, TieSeed: 77})
			if err != nil {
				return err
			}
			global, err := core.Gather(ctx, g, res.Labels)
			if err != nil {
				return err
			}
			if ctx.Rank() == 0 {
				if first == nil {
					first = global
				} else {
					for v := range first {
						if first[v] != global[v] {
							return fmt.Errorf("random-tie LP not reproducible at %d", v)
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
	// A different seed must (almost surely) change something on a graph
	// with ties.
	err := comm.RunLocal(1, func(c *comm.Comm) error {
		ctx := core.NewCtx(c, 1)
		src := core.ListSource{Edges: tg.edges}
		pt := partition.NewVertexBlock(tg.n, 1)
		g, _, err := core.Build(ctx, src, pt)
		if err != nil {
			return err
		}
		res, err := LabelProp(ctx, g, LabelPropOptions{Iterations: 5, RandomTies: true, TieSeed: 78})
		if err != nil {
			return err
		}
		same := true
		for v := range res.Labels {
			if res.Labels[v] != first[g.GlobalID(uint32(v))] {
				same = false
				break
			}
		}
		if same {
			t.Log("different tie seeds coincided (possible but unlikely)")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPageRankCompressedMatchesUncompressed(t *testing.T) {
	tg := makeTestGraphs(t)[4] // rmat
	want := seq.PageRank(tg.ref, 10, 0.85)
	runConfigs(t, tg, func(ctx *core.Ctx, g *core.Graph) error {
		cg := core.Compress(g)
		res, err := PageRankCompressed(ctx, cg, DefaultPageRank())
		if err != nil {
			return err
		}
		global, err := core.Gather(ctx, g, res.Scores)
		if err != nil {
			return err
		}
		for v := range want {
			if math.Abs(global[v]-want[v]) > 1e-9 {
				return fmt.Errorf("compressed PR[%d] = %v, want %v", v, global[v], want[v])
			}
		}
		return nil
	})
}
