package analytics

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/partition"
)

// deltaSchedule is what a Δ-stepping run did, as counts: the rank-invariant
// schedule (Delta, Rounds, Buckets, InnerRounds) and the group-wide sums of
// relaxation work and bytes on the wire.
type deltaSchedule struct {
	Delta, Rounds, Buckets, InnerRounds, Light, Heavy, Sent uint64
}

// deltaGolden holds the schedules of TestDeltaScheduleGolden's auto-Δ cases
// as recorded on the packed-round kernel, inproc and TCP alike.
var deltaGolden = map[string]deltaSchedule{
	"rmat/hash/p=1":   {Delta: 3, Rounds: 8, Buckets: 4, InnerRounds: 4, Light: 582, Heavy: 994, Sent: 0},
	"rmat/hash/p=2":   {Delta: 3, Rounds: 12, Buckets: 4, InnerRounds: 8, Light: 582, Heavy: 994, Sent: 1956},
	"rmat/hash/p=4":   {Delta: 3, Rounds: 12, Buckets: 4, InnerRounds: 8, Light: 582, Heavy: 994, Sent: 5636},
	"rmat/unit/p=1":   {Delta: 1, Rounds: 8, Buckets: 4, InnerRounds: 4, Light: 1569, Heavy: 0, Sent: 0},
	"rmat/unit/p=2":   {Delta: 1, Rounds: 8, Buckets: 4, InnerRounds: 4, Light: 1569, Heavy: 0, Sent: 1796},
	"rmat/unit/p=4":   {Delta: 1, Rounds: 8, Buckets: 4, InnerRounds: 4, Light: 1569, Heavy: 0, Sent: 4748},
	"er/hash/p=1":     {Delta: 4, Rounds: 12, Buckets: 6, InnerRounds: 6, Light: 363, Heavy: 332, Sent: 0},
	"er/hash/p=2":     {Delta: 4, Rounds: 18, Buckets: 6, InnerRounds: 12, Light: 363, Heavy: 332, Sent: 2084},
	"er/hash/p=4":     {Delta: 4, Rounds: 18, Buckets: 6, InnerRounds: 12, Light: 363, Heavy: 332, Sent: 6632},
	"er/unit/p=1":     {Delta: 1, Rounds: 12, Buckets: 6, InnerRounds: 6, Light: 681, Heavy: 0, Sent: 0},
	"er/unit/p=2":     {Delta: 1, Rounds: 12, Buckets: 6, InnerRounds: 6, Light: 681, Heavy: 0, Sent: 1908},
	"er/unit/p=4":     {Delta: 1, Rounds: 12, Buckets: 6, InnerRounds: 6, Light: 681, Heavy: 0, Sent: 5616},
	"rmat4k/hash/p=1": {Delta: 2, Rounds: 16, Buckets: 8, InnerRounds: 8, Light: 16088, Heavy: 48824, Sent: 0},
	"rmat4k/hash/p=2": {Delta: 2, Rounds: 20, Buckets: 8, InnerRounds: 12, Light: 16088, Heavy: 48824, Sent: 34756},
	"rmat4k/hash/p=4": {Delta: 2, Rounds: 21, Buckets: 8, InnerRounds: 13, Light: 16088, Heavy: 48824, Sent: 80432},
	"rmat4k/unit/p=1": {Delta: 1, Rounds: 8, Buckets: 4, InnerRounds: 4, Light: 64912, Heavy: 0, Sent: 0},
	"rmat4k/unit/p=2": {Delta: 1, Rounds: 8, Buckets: 4, InnerRounds: 4, Light: 64912, Heavy: 0, Sent: 31100},
	"rmat4k/unit/p=4": {Delta: 1, Rounds: 8, Buckets: 4, InnerRounds: 4, Light: 64912, Heavy: 0, Sent: 72512},
}

// deltaParent holds the same cases at the width the mean-weight rule picked
// (Δ = 4 under hash weights, 1 under unit weights), passed explicitly and
// recorded on commit 1447134, before the packed round: the kernel with two
// Allreduces and up to two claim streams per sub-round, and one more
// Allreduce per bucket. They are ceilings, not goldens.
var deltaParent = map[string]deltaSchedule{
	"rmat/hash/delta=4/p=1":   {Delta: 4, Rounds: 7, Buckets: 3, InnerRounds: 4, Light: 742, Heavy: 835, Sent: 0},
	"rmat/hash/delta=4/p=2":   {Delta: 4, Rounds: 9, Buckets: 3, InnerRounds: 6, Light: 812, Heavy: 854, Sent: 2276},
	"rmat/hash/delta=4/p=4":   {Delta: 4, Rounds: 11, Buckets: 3, InnerRounds: 8, Light: 784, Heavy: 850, Sent: 7380},
	"rmat/unit/delta=1/p=1":   {Delta: 1, Rounds: 8, Buckets: 4, InnerRounds: 4, Light: 1569, Heavy: 0, Sent: 0},
	"rmat/unit/delta=1/p=2":   {Delta: 1, Rounds: 8, Buckets: 4, InnerRounds: 4, Light: 1569, Heavy: 0, Sent: 2116},
	"rmat/unit/delta=1/p=4":   {Delta: 1, Rounds: 8, Buckets: 4, InnerRounds: 4, Light: 1569, Heavy: 0, Sent: 6396},
	"er/hash/delta=4/p=1":     {Delta: 4, Rounds: 14, Buckets: 6, InnerRounds: 8, Light: 380, Heavy: 347, Sent: 0},
	"er/hash/delta=4/p=2":     {Delta: 4, Rounds: 18, Buckets: 6, InnerRounds: 12, Light: 374, Heavy: 346, Sent: 2820},
	"er/hash/delta=4/p=4":     {Delta: 4, Rounds: 18, Buckets: 6, InnerRounds: 12, Light: 368, Heavy: 344, Sent: 9756},
	"er/unit/delta=1/p=1":     {Delta: 1, Rounds: 12, Buckets: 6, InnerRounds: 6, Light: 681, Heavy: 0, Sent: 0},
	"er/unit/delta=1/p=2":     {Delta: 1, Rounds: 12, Buckets: 6, InnerRounds: 6, Light: 681, Heavy: 0, Sent: 2376},
	"er/unit/delta=1/p=4":     {Delta: 1, Rounds: 12, Buckets: 6, InnerRounds: 6, Light: 681, Heavy: 0, Sent: 7972},
	"rmat4k/hash/delta=4/p=1": {Delta: 4, Rounds: 9, Buckets: 4, InnerRounds: 5, Light: 35227, Heavy: 32793, Sent: 0},
	"rmat4k/hash/delta=4/p=2": {Delta: 4, Rounds: 13, Buckets: 4, InnerRounds: 9, Light: 35682, Heavy: 32896, Sent: 33828},
	"rmat4k/hash/delta=4/p=4": {Delta: 4, Rounds: 13, Buckets: 4, InnerRounds: 9, Light: 36506, Heavy: 33000, Sent: 82780},
	"rmat4k/unit/delta=1/p=1": {Delta: 1, Rounds: 8, Buckets: 4, InnerRounds: 4, Light: 64912, Heavy: 0, Sent: 0},
	"rmat4k/unit/delta=1/p=2": {Delta: 1, Rounds: 8, Buckets: 4, InnerRounds: 4, Light: 64912, Heavy: 0, Sent: 32436},
	"rmat4k/unit/delta=1/p=4": {Delta: 1, Rounds: 8, Buckets: 4, InnerRounds: 4, Light: 64912, Heavy: 0, Sent: 76656},
}

// underParent reports how got breaks the rules for a deltaParent row: Δ, the
// bucket count and (checked elsewhere) every distance are fixed points; the
// round counts and the relaxations may only fall; the bytes may grow by 5%.
func underParent(got, parent deltaSchedule) error {
	switch {
	case got.Delta != parent.Delta || got.Buckets != parent.Buckets:
		return fmt.Errorf("Δ %d and %d buckets, parent %d and %d", got.Delta, got.Buckets, parent.Delta, parent.Buckets)
	case got.Rounds > parent.Rounds || got.InnerRounds > parent.InnerRounds:
		return fmt.Errorf("%d rounds, %d light sub-rounds, parent %d and %d", got.Rounds, got.InnerRounds, parent.Rounds, parent.InnerRounds)
	case got.Light > parent.Light || got.Heavy > parent.Heavy:
		return fmt.Errorf("%d light and %d heavy relaxations, parent %d and %d", got.Light, got.Heavy, parent.Light, parent.Heavy)
	case 100*got.Sent > 105*parent.Sent:
		return fmt.Errorf("%d B on the wire, parent %d", got.Sent, parent.Sent)
	}
	return nil
}

// rmat4kGraph is a test graph large enough (4096 vertices, 65536 edges) for
// edge-sized effects to dominate per-vertex ones.
func rmat4kGraph(t *testing.T) testGraph {
	t.Helper()
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: 4096, NumEdges: 65536, Seed: 9}
	el, err := spec.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	return testGraph{name: "rmat4k", n: spec.NumVertices, edges: el}
}

// buildShard builds this rank's shard of tg under the given partitioning.
func buildShard(ctx *core.Ctx, tg testGraph, kind partition.Kind) (*core.Graph, error) {
	src := core.ListSource{Edges: tg.edges}
	pt, err := core.MakePartitioner(ctx, src, kind, tg.n, 123)
	if err != nil {
		return nil, err
	}
	g, _, err := core.Build(ctx, src, pt)
	return g, err
}

// deltaScheduleOf runs SSSPDelta from vertex 0 at width delta on this
// rank's shard of tg and records the rank's counts in per[rank].
func deltaScheduleOf(ctx *core.Ctx, tg testGraph, w WeightFunc, delta uint64, per []deltaSchedule) error {
	g, err := buildShard(ctx, tg, partition.VertexBlock)
	if err != nil {
		return err
	}
	ctx.Comm.ResetStats()
	res, err := SSSPDelta(ctx, g, 0, w, delta)
	if err != nil {
		return err
	}
	per[ctx.Rank()] = deltaSchedule{
		Delta: res.Delta, Rounds: uint64(res.Rounds),
		Buckets: res.Buckets.Buckets, InnerRounds: res.Buckets.InnerRounds,
		Light: res.Buckets.LightRelaxations, Heavy: res.Buckets.HeavyRelaxations,
		Sent: ctx.Comm.TakeStats().BytesSent,
	}
	return nil
}

// foldSchedules checks that every rank reports rank 0's schedule and sums
// the per-rank work and bytes into it.
func foldSchedules(t *testing.T, per []deltaSchedule) deltaSchedule {
	t.Helper()
	sum := per[0]
	for r, s := range per[1:] {
		if s.Delta != sum.Delta || s.Rounds != sum.Rounds || s.Buckets != sum.Buckets || s.InnerRounds != sum.InnerRounds {
			t.Fatalf("rank %d disagrees with rank 0 on the schedule: %+v vs %+v", r+1, s, per[0])
		}
		sum.Light += s.Light
		sum.Heavy += s.Heavy
		sum.Sent += s.Sent
	}
	return sum
}

// TestDeltaScheduleGolden pins SSSPDelta's schedule as counts — Δ, the
// round and bucket counts, the relaxation work and the wire bytes — on three
// graphs × hash/unit weights × p ∈ {1, 2, 4}, on both transports, Threads =
// 1 so the counts are deterministic. The auto-Δ rows are goldens; the rows
// that pass the parent's width explicitly hold the packed round to the
// parent's literals (underParent) and log the comparison.
func TestDeltaScheduleGolden(t *testing.T) {
	graphs := makeTestGraphs(t)
	weights := []struct {
		name  string
		w     WeightFunc
		delta uint64 // the width the mean-weight rule picked
	}{{"hash", HashWeights(7, 8), 4}, {"unit", UnitWeights, 1}}
	for _, tg := range []testGraph{graphs[4], graphs[5], rmat4kGraph(t)} { // rmat, er
		for _, wt := range weights {
			for _, delta := range []uint64{0, wt.delta} {
				for _, p := range []int{1, 2, 4} {
					tg, wt, delta, p := tg, wt, delta, p
					key := fmt.Sprintf("%s/%s/p=%d", tg.name, wt.name, p)
					if delta != 0 {
						key = fmt.Sprintf("%s/%s/delta=%d/p=%d", tg.name, wt.name, delta, p)
					}
					check := func(t *testing.T, per []deltaSchedule) {
						t.Helper()
						got := foldSchedules(t, per)
						if delta == 0 {
							if want := deltaGolden[key]; got != want {
								t.Errorf("got  %q: %+v,\nwant %+v", key, got, want)
							}
							return
						}
						parent := deltaParent[key]
						t.Logf("%s: %+v, parent %+v", key, got, parent)
						if err := underParent(got, parent); err != nil {
							t.Errorf("%s: %v", key, err)
						}
					}
					t.Run(key+"/inproc", func(t *testing.T) {
						per := make([]deltaSchedule, p)
						err := comm.RunLocal(p, func(c *comm.Comm) error {
							return deltaScheduleOf(core.NewCtx(c, 1), tg, wt.w, delta, per)
						})
						if err != nil {
							t.Fatal(err)
						}
						check(t, per)
					})
					if p == 1 || testing.Short() {
						continue
					}
					t.Run(key+"/tcp", func(t *testing.T) {
						per := make([]deltaSchedule, p)
						errs, _ := runScheduledTCPRanks(t, p, comm.FaultSchedule{}, comm.RetryPolicy{}, func(ctx *core.Ctx) error {
							return deltaScheduleOf(ctx, tg, wt.w, delta, per)
						})
						for r, err := range errs {
							if err != nil {
								t.Fatalf("rank %d: %v", r, err)
							}
						}
						check(t, per)
					})
				}
			}
		}
	}
}

// deltaSweep runs SSSPDelta from vertex 0 on every schedule-golden graph ×
// hash/unit weights × p ∈ {1, 2, 4} × Δ ∈ {1, 2, 4, 8, auto}, inproc,
// Threads = 1, and hands each rank's shard, result and communicator counts
// to check.
func deltaSweep(t *testing.T, check func(g *core.Graph, w WeightFunc, res *SSSPResult, st comm.Stats) error) {
	graphs := makeTestGraphs(t)
	weights := []struct {
		name string
		w    WeightFunc
	}{{"hash", HashWeights(7, 8)}, {"unit", UnitWeights}}
	for _, tg := range []testGraph{graphs[4], graphs[5], rmat4kGraph(t)} {
		for _, wt := range weights {
			for _, p := range []int{1, 2, 4} {
				for _, delta := range []uint64{1, 2, 4, 8, 0} {
					tg, wt, p, delta := tg, wt, p, delta
					t.Run(fmt.Sprintf("%s/%s/delta=%d/p=%d", tg.name, wt.name, delta, p), func(t *testing.T) {
						err := comm.RunLocal(p, func(c *comm.Comm) error {
							ctx := core.NewCtx(c, 1)
							g, err := buildShard(ctx, tg, partition.VertexBlock)
							if err != nil {
								return err
							}
							ctx.Comm.ResetStats()
							res, err := SSSPDelta(ctx, g, 0, wt.w, delta)
							if err != nil {
								return err
							}
							return check(g, wt.w, res, ctx.Comm.TakeStats())
						})
						if err != nil {
							t.Fatal(err)
						}
					})
				}
			}
		}
	}
}

// TestDeltaRelaxesHeavyEdgesOnce: every vertex a bucket settles relaxes its
// heavy edges once, so a rank's heavy relaxations are at most the heavy
// out-edges of its reached vertices. A vertex the light cascade took into
// bucket k while an earlier sub-round had it filed in a later bucket k′ used
// to stay filed there, and bucket k′ settled it — and relaxed its heavy
// edges — a second time.
func TestDeltaRelaxesHeavyEdgesOnce(t *testing.T) {
	deltaSweep(t, func(g *core.Graph, w WeightFunc, res *SSSPResult, _ comm.Stats) error {
		var heavy uint64
		for v := uint32(0); v < g.NLoc; v++ {
			if res.Dist[v] == InfDistance {
				continue
			}
			for _, u := range g.OutNeighbors(v) {
				if w(g.GlobalID(v), g.GlobalID(u)) > res.Delta {
					heavy++
				}
			}
		}
		if res.Buckets.HeavyRelaxations > heavy {
			return fmt.Errorf("Δ=%d: %d heavy relaxations, %d heavy out-edges of reached vertices",
				res.Delta, res.Buckets.HeavyRelaxations, heavy)
		}
		return nil
	})
}

// TestDeltaCollectivesPerRound pins Δ-stepping's communication structure
// from the communicator's own counters: one transport round per claim round
// (Traversal.SparseExchanges) plus three — the halo's gid round, the
// prologue's reduce and the closing Reached reduce — and nothing per claim
// or per bucket. A claim round is a light sub-round or a bucket's heavy
// phase (Rounds), or a light sub-round in which nobody had anything to
// extract: at most one per bucket to close it (its last working sub-round
// claimed into it, and every such claim lost to a shorter distance) and one
// per heavy phase whose claims named a bucket they then left empty.
func TestDeltaCollectivesPerRound(t *testing.T) {
	deltaSweep(t, func(_ *core.Graph, _ WeightFunc, res *SSSPResult, st comm.Stats) error {
		claimRounds := res.Traversal.SparseExchanges
		if st.Exchanges != claimRounds+3 {
			return fmt.Errorf("%d collectives for %d claim rounds, want %d", st.Exchanges, claimRounds, claimRounds+3)
		}
		relax, buckets := uint64(res.Rounds), res.Buckets.Buckets
		if relax != res.Buckets.InnerRounds+buckets || claimRounds < relax || claimRounds > relax+2*buckets {
			return fmt.Errorf("%d claim rounds for %d light sub-rounds and %d buckets (Rounds %d)",
				claimRounds, res.Buckets.InnerRounds, buckets, res.Rounds)
		}
		return nil
	})
}

// TestDeltaScheduleIndependentOfThreads: a light sub-round ends at a local
// fixed point, so what it leaves behind — the distances, the vertices bucket
// k settled, the ghosts it claims and their distances — does not depend on
// the order the pool's threads relaxed in, and neither does anything the
// group decides from it. Rounds, buckets, claim rounds, heavy relaxations and
// bytes must equal the one-thread run's at three threads, every time; only
// the light relaxations (how often a vertex re-relaxed) may differ.
func TestDeltaScheduleIndependentOfThreads(t *testing.T) {
	type sched struct {
		rounds, inner, buckets, claimRounds, heavy, sent uint64
	}
	graphs := makeTestGraphs(t)
	for _, tg := range []testGraph{graphs[4], graphs[5], rmat4kGraph(t)} {
		for _, p := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/p=%d", tg.name, p), func(t *testing.T) {
				var want []sched
				for rep := 0; rep < 4; rep++ {
					threads := 3
					if rep == 0 {
						threads = 1
					}
					got := make([]sched, p)
					err := comm.RunLocal(p, func(c *comm.Comm) error {
						ctx := core.NewCtx(c, threads)
						g, err := buildShard(ctx, tg, partition.VertexBlock)
						if err != nil {
							return err
						}
						ctx.Comm.ResetStats()
						res, err := SSSPDelta(ctx, g, 0, HashWeights(7, 8), 0)
						if err != nil {
							return err
						}
						b := res.Buckets
						got[c.Rank()] = sched{uint64(res.Rounds), b.InnerRounds, b.Buckets, res.Traversal.SparseExchanges,
							b.HeavyRelaxations, ctx.Comm.TakeStats().BytesSent}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					if want == nil {
						want = got
					} else if !slices.Equal(got, want) {
						t.Fatalf("%d threads: %+v, one thread: %+v", threads, got, want)
					}
				}
			})
		}
	}
}

// TestAutoDelta checks the Meyer–Sanders width ⌈4·sumW·n/m²⌉ at exact
// and inexact quotients, its floor of 1, and the 128-bit product: a weight
// sum near 2^64 must give a width, not a divide fault.
func TestAutoDelta(t *testing.T) {
	for _, c := range []struct{ sumW, m, n, want uint64 }{
		{sumW: 36 << 16 * 65 / 2, m: 36 << 16, n: 1 << 16, want: 4}, // weights in [1, 64], m = 36n: ⌈3.61⌉
		{sumW: 2 * 1600, m: 1600, n: 400, want: 2},                  // exactly 4·2/4
		{sumW: 2*1600 + 1, m: 1600, n: 400, want: 3},
		{sumW: 100, m: 100, n: 10, want: 1}, // 0.4, floored at 1
		{sumW: 0, m: 0, n: 10, want: 1},     // no edges
		{sumW: ^uint64(0), m: 3, n: 1 << 20, want: ^uint64(0) / 3},
		{sumW: 1 << 62, m: 1 << 33, n: 1 << 31, want: 1 << 29},
	} {
		if got := autoDelta(c.sumW, c.m, c.n); got != c.want {
			t.Errorf("autoDelta(%d, %d, %d) = %d, want %d", c.sumW, c.m, c.n, got, c.want)
		}
	}
}

// TestDeltaSplitProperty checks splitByWeight on random segments (empty,
// single-edge, all-light and all-heavy ones included) at Δ = 1, the median
// weight, the maximum weight and ^0: bound[v] stays inside v's segment,
// everything left of it is light and everything right of it heavy, the
// light edges keep their CSR order (the schedule depends on it), and each
// vertex's (target, weight) multiset is the CSR's.
func TestDeltaSplitProperty(t *testing.T) {
	const n, maxW = 300, 100
	r := rand.New(rand.NewSource(42))
	g := &core.Graph{NLoc: n, OutIdx: make([]uint64, n+1)}
	var orig []uint64
	for v := 0; v < n; v++ {
		deg := r.Intn(41)
		if v%7 == 0 {
			deg = v % 3 // empty, single-edge and two-edge segments
		}
		for i := 0; i < deg; i++ {
			g.OutEdges = append(g.OutEdges, uint32(r.Intn(n)))
			wt := uint64(1 + r.Intn(maxW))
			switch v % 5 {
			case 1:
				wt = 1 // light under every Δ
			case 2:
				wt = maxW // heavy under every Δ < maxW
			}
			orig = append(orig, wt)
		}
		g.OutIdx[v+1] = uint64(len(g.OutEdges))
	}
	type pair struct {
		to uint32
		w  uint64
	}
	byEdge := func(a, b pair) int {
		if c := cmp.Compare(a.to, b.to); c != 0 {
			return c
		}
		return cmp.Compare(a.w, b.w)
	}
	ctx := &core.Ctx{Pool: par.NewPool(3)}
	for _, delta := range []uint64{1, maxW / 2, maxW, ^uint64(0)} {
		s := splitByWeight(ctx, g, append([]uint64(nil), orig...), delta)
		for v := 0; v < n; v++ {
			b, e, bd := g.OutIdx[v], g.OutIdx[v+1], s.bound[v]
			if bd < b || bd > e {
				t.Fatalf("Δ=%d: bound[%d] = %d outside [%d, %d]", delta, v, bd, b, e)
			}
			var wantLight, want, got []pair
			for j := b; j < e; j++ {
				pr := pair{g.OutEdges[j], orig[j]}
				want = append(want, pr)
				if pr.w <= delta {
					wantLight = append(wantLight, pr)
				}
				got = append(got, pair{s.to[j], s.w[j]})
				if light := s.w[j] <= delta; light != (j < bd) {
					t.Fatalf("Δ=%d: vertex %d slot %d has weight %d on the wrong side of bound %d", delta, v, j, s.w[j], bd)
				}
			}
			if !slices.Equal(got[:bd-b], wantLight) {
				t.Fatalf("Δ=%d: vertex %d light edges %v, want CSR order %v", delta, v, got[:bd-b], wantLight)
			}
			slices.SortFunc(got, byEdge)
			slices.SortFunc(want, byEdge)
			if !slices.Equal(got, want) {
				t.Fatalf("Δ=%d: vertex %d edges %v, want the CSR's %v", delta, v, got, want)
			}
		}
	}
}

// TestDeltaAllocationPin bounds what one single-rank SSSPDelta call
// allocates: 12 B per out-edge (4 B target + 8 B weight, split in place)
// plus per-vertex state. A second edge-sized temporary — the 8 B/edge
// weight array the split used to copy out of — breaks the 13 B bound.
func TestDeltaAllocationPin(t *testing.T) {
	tg := rmat4kGraph(t)
	err := comm.RunLocal(1, func(c *comm.Comm) error {
		ctx := core.NewCtx(c, 1)
		g, err := buildShard(ctx, tg, partition.VertexBlock)
		if err != nil {
			return err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := SSSPDelta(ctx, g, 0, HashWeights(7, 8), 0); err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		limit := 13*g.MOut() + 96*uint64(g.NTotal()) + 64<<10
		t.Logf("allocated %d B for %d out-edges, %d vertices (limit %d)", got, g.MOut(), g.NTotal(), limit)
		if got > limit {
			return fmt.Errorf("SSSPDelta allocated %d B, over 13 B × %d out-edges + 96 B × %d vertices + 64 KiB = %d",
				got, g.MOut(), g.NTotal(), limit)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
