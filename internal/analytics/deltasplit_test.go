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

// deltaGolden holds the schedules of TestDeltaScheduleGolden's cases as
// recorded on commit 6e1d551 (materializeWeights + buildSplit), inproc and
// TCP alike.
var deltaGolden = map[string]deltaSchedule{
	"rmat/hash/p=1":   {Delta: 4, Rounds: 7, Buckets: 3, InnerRounds: 4, Light: 742, Heavy: 835, Sent: 0},
	"rmat/hash/p=2":   {Delta: 4, Rounds: 9, Buckets: 3, InnerRounds: 6, Light: 812, Heavy: 854, Sent: 2276},
	"rmat/hash/p=4":   {Delta: 4, Rounds: 11, Buckets: 3, InnerRounds: 8, Light: 784, Heavy: 850, Sent: 7380},
	"rmat/unit/p=1":   {Delta: 1, Rounds: 8, Buckets: 4, InnerRounds: 4, Light: 1569, Heavy: 0, Sent: 0},
	"rmat/unit/p=2":   {Delta: 1, Rounds: 8, Buckets: 4, InnerRounds: 4, Light: 1569, Heavy: 0, Sent: 2116},
	"rmat/unit/p=4":   {Delta: 1, Rounds: 8, Buckets: 4, InnerRounds: 4, Light: 1569, Heavy: 0, Sent: 6396},
	"er/hash/p=1":     {Delta: 4, Rounds: 14, Buckets: 6, InnerRounds: 8, Light: 380, Heavy: 347, Sent: 0},
	"er/hash/p=2":     {Delta: 4, Rounds: 18, Buckets: 6, InnerRounds: 12, Light: 374, Heavy: 346, Sent: 2820},
	"er/hash/p=4":     {Delta: 4, Rounds: 18, Buckets: 6, InnerRounds: 12, Light: 368, Heavy: 344, Sent: 9756},
	"er/unit/p=1":     {Delta: 1, Rounds: 12, Buckets: 6, InnerRounds: 6, Light: 681, Heavy: 0, Sent: 0},
	"er/unit/p=2":     {Delta: 1, Rounds: 12, Buckets: 6, InnerRounds: 6, Light: 681, Heavy: 0, Sent: 2376},
	"er/unit/p=4":     {Delta: 1, Rounds: 12, Buckets: 6, InnerRounds: 6, Light: 681, Heavy: 0, Sent: 7972},
	"rmat4k/hash/p=1": {Delta: 4, Rounds: 9, Buckets: 4, InnerRounds: 5, Light: 35227, Heavy: 32793, Sent: 0},
	"rmat4k/hash/p=2": {Delta: 4, Rounds: 13, Buckets: 4, InnerRounds: 9, Light: 35682, Heavy: 32896, Sent: 33828},
	"rmat4k/hash/p=4": {Delta: 4, Rounds: 13, Buckets: 4, InnerRounds: 9, Light: 36506, Heavy: 33000, Sent: 82780},
	"rmat4k/unit/p=1": {Delta: 1, Rounds: 8, Buckets: 4, InnerRounds: 4, Light: 64912, Heavy: 0, Sent: 0},
	"rmat4k/unit/p=2": {Delta: 1, Rounds: 8, Buckets: 4, InnerRounds: 4, Light: 64912, Heavy: 0, Sent: 32436},
	"rmat4k/unit/p=4": {Delta: 1, Rounds: 8, Buckets: 4, InnerRounds: 4, Light: 64912, Heavy: 0, Sent: 76656},
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

// deltaScheduleOf runs auto-Δ SSSPDelta from vertex 0 on this rank's shard
// of tg and records the rank's counts in per[rank].
func deltaScheduleOf(ctx *core.Ctx, tg testGraph, w WeightFunc, per []deltaSchedule) error {
	g, err := buildShard(ctx, tg, partition.VertexBlock)
	if err != nil {
		return err
	}
	ctx.Comm.ResetStats()
	res, err := SSSPDelta(ctx, g, 0, w, 0)
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

// TestDeltaScheduleGolden pins SSSPDelta's schedule as counts recorded on
// the commit before the fused weigh pass and in-place split: a change to
// the prologue's layout or instruction count must leave Δ, the round and
// bucket counts, the relaxation work and the wire bytes exactly where they
// were, on both transports. Threads = 1, so the counts are deterministic.
func TestDeltaScheduleGolden(t *testing.T) {
	graphs := makeTestGraphs(t)
	weights := []struct {
		name string
		w    WeightFunc
	}{{"hash", HashWeights(7, 8)}, {"unit", UnitWeights}}
	for _, tg := range []testGraph{graphs[4], graphs[5], rmat4kGraph(t)} { // rmat, er
		for _, wt := range weights {
			for _, p := range []int{1, 2, 4} {
				tg, wt, p := tg, wt, p
				key := fmt.Sprintf("%s/%s/p=%d", tg.name, wt.name, p)
				check := func(t *testing.T, per []deltaSchedule) {
					t.Helper()
					if got, want := foldSchedules(t, per), deltaGolden[key]; got != want {
						t.Errorf("got  %q: %+v,\nwant %+v", key, got, want)
					}
				}
				t.Run(key+"/inproc", func(t *testing.T) {
					per := make([]deltaSchedule, p)
					err := comm.RunLocal(p, func(c *comm.Comm) error {
						return deltaScheduleOf(core.NewCtx(c, 1), tg, wt.w, per)
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
						return deltaScheduleOf(ctx, tg, wt.w, per)
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
