package analytics

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/gen"
	"repro/internal/partition"
)

// kcoreGoldenRow is what an exact k-core run must reproduce whatever the
// layout: the FNV-1a digest of the global coreness vector, the degeneracy,
// the number of levels (distinct coreness values), and the group-wide sums
// of vertices peeled and edge endpoints scanned.
type kcoreGoldenRow struct {
	Digest                  uint64
	MaxCore                 uint32
	Levels, Peeled, Scanned uint64
}

// kcoreGolden holds the rows recorded on commit 17b8f20 (the bucket-store
// peel; Levels/Peeled/Scanned were its Buckets.Buckets/Extracted/
// LightRelaxations), identical there for every rank count, partitioning and
// transport. "overlay" is wcsim after the golden's mutation schedule.
var kcoreGolden = map[string]kcoreGoldenRow{
	"wcsim":      {Digest: 0xf09711815b739a25, MaxCore: 449, Levels: 74, Peeled: 2048, Scanned: 147456},
	"er":         {Digest: 0xd5c22eeb42eefde6, MaxCore: 8, Levels: 7, Peeled: 1500, Scanned: 18000},
	"pathclique": {Digest: 0x21d75a8a8bbae967, MaxCore: 11, Levels: 4, Peeled: 54, Scanned: 216},
	"overlay":    {Digest: 0x7f87d8a6f076e219, MaxCore: 416, Levels: 74, Peeled: 2048, Scanned: 146710},
}

// kcoreParentRounds and kcoreParentSent are the same commit's sub-round
// counts (ownership-independent there: no local cascade) and group-wide
// bytes on the wire, inproc, Threads = 1. They are ceilings, not goldens:
// Rounds now depends on which vertices share a rank, as SSSP's always has.
var kcoreParentRounds = map[string]int{"wcsim": 152, "er": 25, "pathclique": 44}

var kcoreParentSent = map[string]uint64{
	"wcsim/p=2/random": 236968, "wcsim/p=2/vertex-block": 221692,
	"wcsim/p=3/random": 377768, "wcsim/p=3/vertex-block": 318232,
	"wcsim/p=4/random": 482624, "wcsim/p=4/vertex-block": 443556,
	"wcsim/p=8/random": 836272, "wcsim/p=8/vertex-block": 775072,
	"er/p=2/random": 58384, "er/p=2/vertex-block": 57964,
	"er/p=3/random": 91548, "er/p=3/vertex-block": 91832,
	"er/p=4/random": 118072, "er/p=4/vertex-block": 117164,
	"er/p=8/random": 190512, "er/p=8/vertex-block": 190288,
	"pathclique/p=2/random": 2608, "pathclique/p=2/vertex-block": 1640,
	"pathclique/p=3/random": 6056, "pathclique/p=3/vertex-block": 4928,
	"pathclique/p=4/random": 11264, "pathclique/p=4/vertex-block": 9992,
	"pathclique/p=8/random": 46980, "pathclique/p=8/vertex-block": 45056,
}

// kcoreGoldenGraphs are the golden's three inputs: the benchmark's WC-sim
// R-MAT at 1/32 scale (m = 36 n; parallel edges and self-loops included), an
// Erdős–Rényi graph, and a corner case.
func kcoreGoldenGraphs(t *testing.T) []testGraph {
	t.Helper()
	var gs []testGraph
	for _, s := range []struct {
		name string
		spec gen.Spec
	}{
		{"wcsim", gen.Spec{Kind: gen.RMAT, NumVertices: 1 << 11, NumEdges: 36 << 11, Seed: 7}},
		{"er", gen.Spec{Kind: gen.ER, NumVertices: 1500, NumEdges: 9000, Seed: 6}},
	} {
		el, err := s.spec.GenerateAll()
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, testGraph{name: s.name, n: s.spec.NumVertices, edges: el})
	}
	// A 40-vertex path whose free end has degree 1 — peeling it unzips the
	// whole path one vertex per decrement — hanging off a 12-clique with one
	// doubled edge, a vertex carrying only a self-loop, and an isolated one.
	var pc edge.List
	for v := uint32(0); v < 39; v++ {
		pc.Push(v, v+1)
	}
	for a := uint32(40); a < 52; a++ {
		for b := a + 1; b < 52; b++ {
			pc.Push(a, b)
		}
	}
	pc.Push(39, 40)
	pc.Push(41, 40)
	pc.Push(52, 52)
	return append(gs, testGraph{name: "pathclique", n: 54, edges: pc})
}

// kcoreRun is one rank's view of a run: the golden row (Peeled and Scanned
// still per rank) and the schedule counts the pins bound.
type kcoreRun struct {
	kcoreGoldenRow
	rounds            int
	collectives, sent uint64
}

// kcoreRunOn runs KCoreExact on this rank's shard and records the rank's
// view in per[rank].
func kcoreRunOn(ctx *core.Ctx, g *core.Graph, per []kcoreRun) error {
	ctx.Comm.ResetStats()
	res, err := KCoreExact(ctx, g)
	if err != nil {
		return err
	}
	st := ctx.Comm.TakeStats()
	global, err := core.Gather(ctx, g, res.Coreness)
	if err != nil {
		return err
	}
	h := fnv.New64a()
	var b [4]byte
	for _, c := range global {
		binary.LittleEndian.PutUint32(b[:], c)
		h.Write(b[:])
	}
	per[ctx.Rank()] = kcoreRun{
		kcoreGoldenRow: kcoreGoldenRow{Digest: h.Sum64(), MaxCore: res.MaxCore,
			Levels: uint64(res.Levels), Peeled: res.Peeled, Scanned: res.Scanned},
		rounds: res.Rounds, collectives: st.Exchanges, sent: st.BytesSent,
	}
	return nil
}

// foldKCoreRuns checks that every rank reports rank 0's answer and schedule
// and sums the per-rank work and bytes into it.
func foldKCoreRuns(t *testing.T, per []kcoreRun) kcoreRun {
	t.Helper()
	sum := per[0]
	for r, s := range per[1:] {
		if s.Digest != sum.Digest || s.MaxCore != sum.MaxCore || s.Levels != sum.Levels ||
			s.rounds != sum.rounds || s.collectives != sum.collectives {
			t.Fatalf("rank %d disagrees with rank 0: %+v vs %+v", r+1, s, per[0])
		}
		sum.Peeled += s.Peeled
		sum.Scanned += s.Scanned
		sum.sent += s.sent
	}
	return sum
}

// kcoreRunGroup runs body on p ranks over the chosen transport and folds the
// ranks' views.
func kcoreRunGroup(t *testing.T, p int, tcp bool, body func(ctx *core.Ctx, per []kcoreRun) error) kcoreRun {
	t.Helper()
	per := make([]kcoreRun, p)
	if tcp {
		errs, _ := runScheduledTCPRanks(t, p, comm.FaultSchedule{}, func(ctx *core.Ctx) error {
			return body(ctx, per)
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
	} else if err := comm.RunLocal(p, func(c *comm.Comm) error { return body(core.NewCtx(c, 1), per) }); err != nil {
		t.Fatal(err)
	}
	return foldKCoreRuns(t, per)
}

// kcoreConfigs visits the golden's graph × rank count × partitioning grid.
func kcoreConfigs(t *testing.T, ranks []int, visit func(key string, tg testGraph, p int, kind partition.Kind)) {
	for _, tg := range kcoreGoldenGraphs(t) {
		for _, p := range ranks {
			for _, kind := range []partition.Kind{partition.Random, partition.VertexBlock} {
				visit(fmt.Sprintf("%s/p=%d/%v", tg.name, p, kind), tg, p, kind)
			}
		}
	}
}

// TestKCoreExactGolden pins exact k-core's answer and its layout-independent
// work counts to literals recorded on the bucket-store kernel, on three
// graphs × p ∈ {1, 2, 3, 4, 8} × {random, vertex-block} × inproc/TCP, and on
// a merged-but-uncompacted mutation overlay against a rebuild.
//
// May not move: the coreness digest, MaxCore, Levels, and the group-wide
// Peeled and Scanned. May move: Rounds (it falls with the local cascade and
// depends on ownership — TestKCoreCollectivesPerSubRound caps it), the
// collective count and the bytes on the wire (capped there too).
func TestKCoreExactGolden(t *testing.T) {
	kcoreConfigs(t, []int{1, 2, 3, 4, 8}, func(key string, tg testGraph, p int, kind partition.Kind) {
		for _, tcp := range []bool{false, true} {
			if tcp && (p == 1 || testing.Short()) {
				continue
			}
			name := key + "/inproc"
			if tcp {
				name = key + "/tcp"
			}
			t.Run(name, func(t *testing.T) {
				got := kcoreRunGroup(t, p, tcp, func(ctx *core.Ctx, per []kcoreRun) error {
					g, err := buildShard(ctx, tg, kind)
					if err != nil {
						return err
					}
					return kcoreRunOn(ctx, g, per)
				})
				if want := kcoreGolden[tg.name]; got.kcoreGoldenRow != want {
					t.Errorf("got  %+v,\nwant %+v", got.kcoreGoldenRow, want)
				}
			})
		}
	})

	wc := kcoreGoldenGraphs(t)[0]
	batches, mutated := mutationBatches(9, wc.n, wc.edges, 3, 200)
	for _, p := range []int{1, 3, 4} {
		t.Run(fmt.Sprintf("overlay/p=%d", p), func(t *testing.T) {
			rebuilt := make([]kcoreRun, p)
			merged := kcoreRunGroup(t, p, false, func(ctx *core.Ctx, per []kcoreRun) error {
				src := core.ListSource{Edges: wc.edges}
				pt, err := core.MakePartitioner(ctx, src, partition.Random, wc.n, 123)
				if err != nil {
					return err
				}
				g, _, err := core.Build(ctx, src, pt)
				if err != nil {
					return err
				}
				d := core.NewDelta(g)
				for bi, batch := range batches {
					if err := d.Apply(uint64(bi+1), batch); err != nil {
						return fmt.Errorf("batch %d: %w", bi, err)
					}
				}
				mGlobal, err := comm.Allreduce(ctx.Comm, d.LiveOut(), comm.OpSum)
				if err != nil {
					return err
				}
				mg, err := core.MergeDelta(d, mGlobal)
				if err != nil {
					return err
				}
				rg, _, err := core.Build(ctx, core.ListSource{Edges: mutated}, pt)
				if err != nil {
					return err
				}
				if err := kcoreRunOn(ctx, rg, rebuilt); err != nil {
					return err
				}
				return kcoreRunOn(ctx, mg, per)
			})
			// Same ownership on both sides, so the whole schedule must agree,
			// not only the golden row.
			if want := foldKCoreRuns(t, rebuilt); merged != want {
				t.Errorf("merged overlay %+v,\nrebuild        %+v", merged, want)
			}
			if want := kcoreGolden["overlay"]; merged.kcoreGoldenRow != want {
				t.Errorf("got  %+v,\nwant %+v", merged.kcoreGoldenRow, want)
			}
		})
	}
}

// TestKCoreCollectivesPerSubRound pins the kernel's communication structure
// from the communicator's own counters: one transport round per level, one
// per sub-round, one closing round and the halo's build — nothing per claim
// and no separate reduction — with no more sub-rounds and no more bytes than
// the bucket-store kernel spent on the same graph and layout.
func TestKCoreCollectivesPerSubRound(t *testing.T) {
	kcoreConfigs(t, []int{2, 3, 4, 8}, func(key string, tg testGraph, p int, kind partition.Kind) {
		t.Run(key, func(t *testing.T) {
			got := kcoreRunGroup(t, p, false, func(ctx *core.Ctx, per []kcoreRun) error {
				g, err := buildShard(ctx, tg, kind)
				if err != nil {
					return err
				}
				return kcoreRunOn(ctx, g, per)
			})
			t.Logf("%d levels, %d sub-rounds, %d collectives, %d B", got.Levels, got.rounds, got.collectives, got.sent)
			if want := uint64(got.rounds) + got.Levels + 2; got.collectives != want {
				t.Errorf("%d collectives for %d sub-rounds and %d levels, want %d", got.collectives, got.rounds, got.Levels, want)
			}
			if max := kcoreParentRounds[tg.name]; got.rounds > max {
				t.Errorf("%d sub-rounds, the bucket-store kernel took %d", got.rounds, max)
			}
			if max := kcoreParentSent[key]; got.sent > max {
				t.Errorf("%d B on the wire, the bucket-store kernel sent %d", got.sent, max)
			}
		})
	})
}

// TestKCoreAllocationPin bounds what one warm two-rank KCoreExact query
// allocates, group-wide (MemStats is process-global: rank 0 measures between
// two barriers): 24 B per vertex slot and halo queue entry — the counters,
// the peel order, the live list, the claim staging — and a few dozen objects
// in all, so nothing is allocated per sub-round (wcsim takes over a hundred).
func TestKCoreAllocationPin(t *testing.T) {
	tg := kcoreGoldenGraphs(t)[0]
	err := comm.RunLocal(2, func(c *comm.Comm) error {
		ctx := core.NewCtx(c, 1)
		ctx.Plans = core.NewPlans(nil)
		g, err := buildShard(ctx, tg, partition.Random)
		if err != nil {
			return err
		}
		h, _, err := haloFor(ctx, g, DirsBoth)
		if err != nil {
			return err
		}
		if _, err := KCoreExact(ctx, g); err != nil { // sizes the communicator's buffers
			return err
		}
		slots, err := comm.Allreduce(c, uint64(int(g.NTotal())+h.SendVolume()), comm.OpSum)
		if err != nil {
			return err
		}
		var before, after runtime.MemStats
		if c.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		if _, err := comm.Allreduce(c, uint64(0), comm.OpSum); err != nil {
			return err
		}
		res, err := KCoreExact(ctx, g)
		if err != nil {
			return err
		}
		if _, err := comm.Allreduce(c, uint64(0), comm.OpSum); err != nil {
			return err
		}
		if c.Rank() != 0 {
			return nil
		}
		runtime.ReadMemStats(&after)
		bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		limit := 24*slots + 16<<10
		t.Logf("allocated %d B in %d objects over %d sub-rounds for %d slots (limit %d B, 64 objects)", bytes, objects, res.Rounds, slots, limit)
		if bytes > limit {
			return fmt.Errorf("KCoreExact allocated %d B, over 24 B × %d slots + 16 KiB = %d", bytes, slots, limit)
		}
		if res.Rounds < 100 || objects > 64 {
			return fmt.Errorf("KCoreExact allocated %d objects over %d sub-rounds, want at most 64 whatever the round count", objects, res.Rounds)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestKCoreExactRejectsForgedRounds drives the kernel's receive path with a
// forged stream: rank 1 builds the halo with rank 0, answers the opening
// round as a rank with nothing to peel, and then sends a round no peer
// running the kernel on this graph could send. Rank 0 must fail the query
// with a corrupt-message CommError naming rank 1 — not index out of range,
// and not (as the bucket-store kernel did with an oversized count) clamp the
// vertex to zero and carry on.
func TestKCoreExactRejectsForgedRounds(t *testing.T) {
	tg := kcoreGoldenGraphs(t)[1]
	const peeledOne = uint64(1)<<32 | uint64(kcoreRest)
	// Rank 0 opens at the least degree it owns, k0 (the forger reports
	// none), and peels every vertex it owns at k0 before it reads the
	// forged round; forger is rank 1's shard and halo.
	deg := make([]uint32, tg.n)
	for _, v := range tg.edges {
		deg[v]++
	}
	owner, k0 := partition.NewRandom(tg.n, 2, 123), kcoreRest
	for v, d := range deg {
		if owner.Owner(uint32(v)) == 0 {
			k0 = min(k0, d)
		}
	}
	var forger struct {
		g *core.Graph
		h *Halo
	}
	forgeries := []struct {
		name string
		// round builds rank 1's segment for rank 0 given the number of slots
		// rank 0's halo queue holds for rank 1.
		round func(slots int) []uint64
	}{
		{"slot out of range", func(slots int) []uint64 { return []uint64{peeledOne, uint64(slots)<<32 | 1} }},
		{"count beyond the remaining degree", func(slots int) []uint64 {
			seg := []uint64{peeledOne}
			for s := 0; s < slots; s++ {
				seg = append(seg, uint64(s)<<32|1<<30)
			}
			return seg
		}},
		{"zero count", func(slots int) []uint64 {
			seg := []uint64{peeledOne}
			for s := 0; s < slots; s++ {
				seg = append(seg, uint64(s)<<32)
			}
			return seg
		}},
		{"claims from a rank that peeled nothing", func(int) []uint64 { return []uint64{uint64(kcoreRest), 1} }},
		// A peeled vertex's counter keeps counting, so k0+1 is more than any
		// vertex peeled at k0 has left.
		{"count on an already-peeled vertex beyond what it has left", func(int) []uint64 {
			gm, err := forger.h.geometry()
			if err != nil {
				t.Error(err)
				return nil
			}
			seg := []uint64{peeledOne}
			for gi, d := range forger.g.GhostOwner {
				if d == 0 && deg[forger.g.Unmap[forger.g.NLoc+uint32(gi)]] == k0 {
					seg = append(seg, uint64(gm.ghostSlot[gi])<<32|uint64(k0+1))
				}
			}
			if len(seg) == 1 {
				t.Error("no vertex of rank 0's least degree is a ghost on rank 1")
			}
			return seg
		}},
		{"no control word", func(int) []uint64 { return nil }},
	}
	for _, f := range forgeries {
		t.Run(f.name, func(t *testing.T) {
			trs := comm.NewLocalGroup(2)
			comms := []*comm.Comm{comm.New(trs[0]), comm.New(trs[1])}
			errs := comm.RunOnAll(comms, func(c *comm.Comm) error {
				ctx := core.NewCtx(c, 1)
				ctx.Plans = core.NewPlans(nil)
				g, err := buildShard(ctx, tg, partition.Random)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					_, err := KCoreExact(ctx, g)
					return err
				}
				h, _, err := haloFor(ctx, g, DirsBoth)
				if err != nil {
					return err
				}
				forger.g, forger.h = g, h
				idle := []uint64{uint64(kcoreRest), uint64(kcoreRest)}
				if _, _, err := comm.Alltoallv(c, idle, []int{1, 1}); err != nil {
					return err
				}
				// Rank 0 fails on the forged round and aborts the group, which
				// catches this rank leaving that round or entering the next; a
				// next round that completes means rank 0 swallowed the forgery.
				seg := f.round(h.recvSegs[0])
				_, _, err = comm.Alltoallv(c, append(seg, peeledOne), []int{len(seg), 1})
				if err == nil {
					if _, _, err = comm.Alltoallv(c, idle, []int{1, 1}); err == nil {
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
		})
	}
}
