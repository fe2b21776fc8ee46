package analytics

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/partition"
)

var planSpec = gen.Spec{Kind: gen.RMAT, NumVertices: 512, NumEdges: 4096, Seed: 31}

func planGraph(ctx *core.Ctx) (*core.Graph, error) {
	src := core.SpecSource{Spec: planSpec}
	pt, err := core.MakePartitioner(ctx, src, partition.Random, planSpec.NumVertices, 9)
	if err != nil {
		return nil, err
	}
	g, _, err := core.Build(ctx, src, pt)
	return g, err
}

// TestPlansColdWarmNil pins the three states of the plan cache against each
// other. A nil cache builds per call, exactly as before the cache existed
// (HaloBuilds 1 per dense BFS; WCC still pays for one halo, not two); a
// cold cache costs the same bytes as no cache; a warm cache reports zero
// builds, returns identical results, and ships fewer bytes by exactly the
// halo's one-time global-id exchange.
func TestPlansColdWarmNil(t *testing.T) {
	err := comm.RunLocal(4, func(c *comm.Comm) error {
		ctx := core.NewCtx(c, 1)
		g, err := planGraph(ctx)
		if err != nil {
			return err
		}
		ctx.Traverse = core.TraverseDense
		type run struct {
			levels []int32
			builds uint64
			sent   uint64
			labels []uint32
			wcc    uint64 // bytes WCC sent
		}
		measure := func() (run, error) {
			var r run
			c.ResetStats()
			b, err := BFS(ctx, g, 0, Forward)
			if err != nil {
				return r, err
			}
			r.levels, r.builds, r.sent = b.Levels, b.Traversal.HaloBuilds, c.TakeStats().BytesSent
			c.ResetStats()
			w, err := WCC(ctx, g)
			if err != nil {
				return r, err
			}
			if w.Traversal.HaloBuilds != 0 {
				return r, fmt.Errorf("WCC's BFS phase built %d halos of its own", w.Traversal.HaloBuilds)
			}
			r.labels, r.wcc = w.Labels, c.TakeStats().BytesSent
			return r, nil
		}

		none1, err := measure()
		if err != nil {
			return err
		}
		none2, err := measure()
		if err != nil {
			return err
		}
		if none1.builds != 1 || none2.builds != 1 {
			return fmt.Errorf("nil plan cache: dense BFS built %d then %d halos, want 1 each", none1.builds, none2.builds)
		}
		if none1.sent != none2.sent || none1.wcc != none2.wcc {
			return fmt.Errorf("nil plan cache: identical calls sent %d/%d then %d/%d bytes", none1.sent, none1.wcc, none2.sent, none2.wcc)
		}

		var counters obs.PlanCounters
		ctx.Plans = core.NewPlans(&counters)
		cold, err := measure()
		if err != nil {
			return err
		}
		warm, err := measure()
		if err != nil {
			return err
		}
		if cold.builds != 1 || cold.sent != none1.sent {
			return fmt.Errorf("cold plan: %d builds, %d bytes; uncached call: 1 build, %d bytes", cold.builds, cold.sent, none1.sent)
		}
		h, built, err := haloFor(ctx, g, DirsBoth)
		if err != nil || built {
			return fmt.Errorf("warm lookup: built=%v err=%v", built, err)
		}
		gidBytes := 4 * uint64(h.SendVolume())
		if warm.builds != 0 || warm.sent != cold.sent-gidBytes {
			return fmt.Errorf("warm BFS: %d builds, %d bytes; want 0 builds, %d-%d bytes", warm.builds, warm.sent, cold.sent, gidBytes)
		}
		// The cold WCC found the BFS's plan already there; an uncached WCC
		// builds its one halo itself.
		if cold.wcc != warm.wcc || none1.wcc != warm.wcc+gidBytes {
			return fmt.Errorf("WCC bytes: uncached %d, cold %d, warm %d (gid exchange %d)", none1.wcc, cold.wcc, warm.wcc, gidBytes)
		}
		for _, r := range []run{none2, cold, warm} {
			if !slices.Equal(r.levels, none1.levels) || !slices.Equal(r.labels, none1.labels) {
				return errors.New("results differ between uncached, cold and warm plans")
			}
		}
		if s := counters.Snapshot(); s.Builds != 1 || s.Resets != 0 || s.Hits == 0 {
			return fmt.Errorf("plan counters after one DirsBoth plan: %+v", s)
		}

		// A reset is a full invalidation: the next call rebuilds.
		ctx.Plans.Reset()
		again, err := measure()
		if err != nil {
			return err
		}
		if again.builds != 1 || again.sent != cold.sent || !slices.Equal(again.levels, none1.levels) {
			return fmt.Errorf("after reset: %d builds, %d bytes", again.builds, again.sent)
		}
		if s := counters.Snapshot(); s.Builds != 2 || s.Resets != 1 {
			return fmt.Errorf("plan counters after reset and rebuild: %+v", s)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPlansSharedAcrossKernels runs kernels of every element type and both
// halo directions against one plan cache and requires the results of the
// uncached run: PageRank (float64, DirsOut), weighted PageRank, SSSP
// (fused dense value exchange), exact k-core, label propagation, WCC.
func TestPlansSharedAcrossKernels(t *testing.T) {
	err := comm.RunLocal(3, func(c *comm.Comm) error {
		ctx := core.NewCtx(c, 1)
		g, err := planGraph(ctx)
		if err != nil {
			return err
		}
		ctx.Traverse = core.TraverseDense
		type out struct {
			pr, wpr []float64
			dist    []uint64
			core    []uint32
			lp, wcc []uint32
		}
		runAll := func() (*out, error) {
			o := &out{}
			pr, err := PageRank(ctx, g, DefaultPageRank())
			if err != nil {
				return nil, err
			}
			wpr, err := PageRankWeighted(ctx, g, DefaultPageRank(), HashWeights(5, 8))
			if err != nil {
				return nil, err
			}
			ss, err := SSSP(ctx, g, 1, HashWeights(5, 8))
			if err != nil {
				return nil, err
			}
			kc, err := KCoreExact(ctx, g)
			if err != nil {
				return nil, err
			}
			lp, err := LabelProp(ctx, g, LabelPropOptions{Iterations: 4})
			if err != nil {
				return nil, err
			}
			wc, err := WCC(ctx, g)
			if err != nil {
				return nil, err
			}
			o.pr, o.wpr, o.dist, o.core, o.lp, o.wcc = pr.Scores, wpr.Scores, ss.Dist, kc.Coreness, lp.Labels, wc.Labels
			return o, nil
		}
		want, err := runAll()
		if err != nil {
			return err
		}
		var counters obs.PlanCounters
		ctx.Plans = core.NewPlans(&counters)
		for pass := 0; pass < 2; pass++ {
			got, err := runAll()
			if err != nil {
				return err
			}
			if !slices.Equal(got.pr, want.pr) || !slices.Equal(got.wpr, want.wpr) || !slices.Equal(got.dist, want.dist) ||
				!slices.Equal(got.core, want.core) || !slices.Equal(got.lp, want.lp) || !slices.Equal(got.wcc, want.wcc) {
				return fmt.Errorf("pass %d over the shared plans diverged from the uncached run", pass)
			}
		}
		if s := counters.Snapshot(); s.Builds != 2 {
			return fmt.Errorf("two passes over six kernels built %d plans, want 2 (DirsOut, DirsBoth)", s.Builds)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHaloForStoresNothingOnCommError injects a scheduled fatal fault into
// the halo's global-id exchange: every rank's build fails with a CommError
// and no rank is left holding a plan its peers do not have.
func TestHaloForStoresNothingOnCommError(t *testing.T) {
	const p, victim = 3, 1
	// The rounds a clean run spends building the graph; the next one is
	// the gid Alltoallv of the first halo build.
	buildRounds := countCleanRounds(t, p, func(ctx *core.Ctx) error {
		_, err := planGraph(ctx)
		return err
	})

	schedule := comm.FaultSchedule{Faults: []comm.Fault{{Rank: victim, Round: buildRounds + 1, Op: comm.FaultFatal}}}
	comms := make([]*comm.Comm, p)
	for r, tr := range comm.NewLocalGroup(p) {
		comms[r] = comm.New(comm.NewScheduledTransport(tr, schedule))
	}
	counters := make([]obs.PlanCounters, p)
	errs := comm.RunOnAll(comms, func(c *comm.Comm) error {
		ctx := core.NewCtx(c, 1)
		ctx.Plans = core.NewPlans(&counters[c.Rank()])
		g, err := planGraph(ctx)
		if err == nil {
			_, _, err = haloFor(ctx, g, DirsBoth)
		} else if c.Rank() == victim {
			return fmt.Errorf("graph build failed on the victim before its scheduled round: %v", err)
		}
		// The victim fails in the gid exchange itself; the abort may catch a
		// peer there or still leaving the round before it.
		var ce *comm.CommError
		if !errors.As(err, &ce) {
			return fmt.Errorf("halo build under a fatal fault returned %v, want a CommError", err)
		}
		if _, ok := ctx.Plans.Lookup(DirsBoth); ok {
			return errors.New("a failed halo build left a plan behind")
		}
		return nil
	})
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
		if s := counters[r].Snapshot(); s.Builds != 0 || s.Hits != 0 {
			t.Errorf("rank %d counted %+v after a failed build", r, s)
		}
	}
}
