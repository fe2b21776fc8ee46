package analytics

import (
	"cmp"
	"fmt"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/partition"
)

// Cross-mode equivalence: the adaptive frontier engine's pin. Every
// traversal policy — always-push/always-sparse, adaptive, and forced
// dense/pull — must produce bit-identical levels, distances, and labels on
// every graph, rank count, and partitioning, on both the inproc and TCP
// transports. Only the wire format and the work order may differ.

// hybridModes are the three policies under test, push first so it serves
// as the reference.
var hybridModes = []struct {
	name string
	mode core.TraversalMode
}{
	{"push", core.TraversePush},
	{"adaptive", core.TraverseAdaptive},
	{"dense", core.TraverseDense},
}

// hybridRunAll runs the BFS-like kernels under one mode and gathers their
// global outputs (plus the scalar summaries folded in as extra elements,
// so one comparison covers everything). Exact k-core and SSSP ride along as
// the kernels the policy must not reach: their claims travel as one packed
// stream whatever the mode, so k-core's answer, schedule and bytes on the
// wire and SSSP's rounds are pinned equal.
type hybridOutputs struct {
	bfsFwd  []int32
	bfsBwd  []int32
	dist    []uint64
	labels  []uint32
	multi   []int32
	core    []uint32
	scalars []uint64
}

func hybridRun(ctx *core.Ctx, g *core.Graph, mode core.TraversalMode) (*hybridOutputs, error) {
	ctx.Traverse = mode
	out := &hybridOutputs{}

	bf, err := BFS(ctx, g, 0, Forward)
	if err != nil {
		return nil, err
	}
	if out.bfsFwd, err = core.Gather(ctx, g, bf.Levels); err != nil {
		return nil, err
	}
	bb, err := BFS(ctx, g, 0, Backward)
	if err != nil {
		return nil, err
	}
	if out.bfsBwd, err = core.Gather(ctx, g, bb.Levels); err != nil {
		return nil, err
	}
	ss, err := SSSP(ctx, g, 0, HashWeights(7, 8))
	if err != nil {
		return nil, err
	}
	if out.dist, err = core.Gather(ctx, g, ss.Dist); err != nil {
		return nil, err
	}
	wc, err := WCC(ctx, g)
	if err != nil {
		return nil, err
	}
	if out.labels, err = core.Gather(ctx, g, wc.Labels); err != nil {
		return nil, err
	}
	roots := []uint32{0, g.NGlobal / 2, g.NGlobal - 1}
	mb, err := multiBFS(ctx, g, roots, Forward)
	if err != nil {
		return nil, err
	}
	for s := range roots {
		lv, err := core.Gather(ctx, g, mb.Levels[s])
		if err != nil {
			return nil, err
		}
		out.multi = append(out.multi, lv...)
	}
	ctx.Comm.ResetStats()
	kc, err := KCoreExact(ctx, g)
	if err != nil {
		return nil, err
	}
	kcSent := ctx.Comm.TakeStats().BytesSent
	if out.core, err = core.Gather(ctx, g, kc.Coreness); err != nil {
		return nil, err
	}
	// SSSP, like exact k-core, has one wire format whatever the mode, and its
	// light sub-rounds end at a local fixed point, so its rounds do not
	// depend on the thread schedule either: they are pinned with the rest.
	out.scalars = []uint64{
		bf.Reached, uint64(int64(bf.Depth)),
		bb.Reached, uint64(int64(bb.Depth)),
		ss.Reached, uint64(ss.Rounds),
		wc.NumComponents, wc.LargestSize, uint64(wc.LargestLabel),
		mb.Reached[0], mb.Reached[1], mb.Reached[2],
		uint64(kc.MaxCore), uint64(kc.Levels), uint64(kc.Rounds), kcSent,
	}
	return out, nil
}

func diffHybrid(mode string, ref, got *hybridOutputs) error {
	cmp := func(what string, eq bool) error {
		if !eq {
			return fmt.Errorf("mode %s: %s differs from push reference", mode, what)
		}
		return nil
	}
	eqI32 := func(a, b []int32) bool {
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
	eqU32 := func(a, b []uint32) bool {
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
	eqU64 := func(a, b []uint64) bool {
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
	if err := cmp("bfs forward levels", eqI32(ref.bfsFwd, got.bfsFwd)); err != nil {
		return err
	}
	if err := cmp("bfs backward levels", eqI32(ref.bfsBwd, got.bfsBwd)); err != nil {
		return err
	}
	if err := cmp("sssp distances", eqU64(ref.dist, got.dist)); err != nil {
		return err
	}
	if err := cmp("wcc labels", eqU32(ref.labels, got.labels)); err != nil {
		return err
	}
	if err := cmp("multibfs levels", eqI32(ref.multi, got.multi)); err != nil {
		return err
	}
	if err := cmp("exact k-core coreness", eqU32(ref.core, got.core)); err != nil {
		return err
	}
	return cmp("scalar summaries", eqU64(ref.scalars, got.scalars))
}

func TestHybridCrossModeEquivalence(t *testing.T) {
	for _, tg := range makeTestGraphs(t) {
		runConfigs(t, tg, func(ctx *core.Ctx, g *core.Graph) error {
			var ref *hybridOutputs
			for _, hm := range hybridModes {
				out, err := hybridRun(ctx, g, hm.mode)
				if err != nil {
					return fmt.Errorf("mode %s: %w", hm.name, err)
				}
				if ref == nil {
					ref = out
					continue
				}
				if err := diffHybrid(hm.name, ref, out); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

// TestHybridForcedModesExerciseBothPaths guards the test above against
// silently degenerating: on the RMAT graph the forced modes must actually
// run the representation they force.
func TestHybridForcedModesExerciseBothPaths(t *testing.T) {
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: 256, NumEdges: 2048, Seed: 99}
	err := comm.RunLocal(2, func(c *comm.Comm) error {
		ctx := core.NewCtx(c, 2)
		src := core.SpecSource{Spec: spec}
		pt, err := core.MakePartitioner(ctx, src, partition.VertexBlock, spec.NumVertices, 123)
		if err != nil {
			return err
		}
		g, _, err := core.Build(ctx, src, pt)
		if err != nil {
			return err
		}
		ctx.Traverse = core.TraversePush
		bp, err := BFS(ctx, g, 0, Forward)
		if err != nil {
			return err
		}
		if bp.Traversal.PullSteps != 0 || bp.Traversal.DenseExchanges != 0 {
			return fmt.Errorf("push mode ran %d pull steps / %d dense exchanges", bp.Traversal.PullSteps, bp.Traversal.DenseExchanges)
		}
		if bp.Traversal.SparseExchanges == 0 {
			return fmt.Errorf("push mode recorded no sparse exchanges")
		}
		ctx.Traverse = core.TraverseDense
		bd, err := BFS(ctx, g, 0, Forward)
		if err != nil {
			return err
		}
		if bd.Traversal.PushSteps != 0 || bd.Traversal.SparseExchanges != 0 {
			return fmt.Errorf("dense mode ran %d push steps / %d sparse exchanges", bd.Traversal.PushSteps, bd.Traversal.SparseExchanges)
		}
		if bd.Traversal.DenseExchanges == 0 || bd.Traversal.HaloBuilds != 1 {
			return fmt.Errorf("dense mode recorded %d dense exchanges / %d halo builds", bd.Traversal.DenseExchanges, bd.Traversal.HaloBuilds)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestJobHybridKnob pins the descriptor-level policy override: the empty
// policy normalizes to adaptive, every other name but the three modes (the
// old aliases included) fails validation before any collective runs, and
// Run applies the override for the job's duration only.
func TestJobHybridKnob(t *testing.T) {
	for _, in := range []string{"", "adaptive", "push", "dense"} {
		j := Job{Analytic: JobWCC, Hybrid: in}
		j.Normalize()
		if want := cmp.Or(in, "adaptive"); j.Hybrid != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, j.Hybrid, want)
		}
		if err := j.Validate(16); err != nil {
			t.Errorf("policy %q rejected: %v", in, err)
		}
	}
	for _, in := range []string{"hybrid", "sparse", "off", "pull", "bottomup"} {
		bad := Job{Analytic: JobWCC, Hybrid: in}
		bad.Normalize()
		if err := bad.Validate(16); err == nil {
			t.Errorf("policy %q accepted", in)
		}
	}
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: 128, NumEdges: 1024, Seed: 3}
	err := comm.RunLocal(1, func(c *comm.Comm) error {
		ctx := core.NewCtx(c, 1)
		ctx.Traverse = core.TraversePush
		src := core.SpecSource{Spec: spec}
		pt, err := core.MakePartitioner(ctx, src, partition.VertexBlock, spec.NumVertices, 123)
		if err != nil {
			return err
		}
		g, _, err := core.Build(ctx, src, pt)
		if err != nil {
			return err
		}
		job := &Job{Analytic: JobBFS, Sources: []uint32{0}, Hybrid: "dense"}
		job.Normalize()
		if _, err := Run(ctx, g, job); err != nil {
			return err
		}
		if ctx.Traverse != (core.TraversePush) {
			return fmt.Errorf("job override leaked into the context policy: %+v", ctx.Traverse)
		}
		// An empty policy keeps the process default rather than forcing
		// adaptive.
		res, err := Run(ctx, g, &Job{Analytic: JobBFS, Sources: []uint32{0}})
		if err != nil {
			return err
		}
		_ = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHybridCrossModeEquivalenceTCP reruns the equivalence pin over a real
// TCP mesh: one mesh, the three policies back to back, every output
// compared against the push reference.
func TestHybridCrossModeEquivalenceTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP mesh in -short mode")
	}
	const p = 3
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: 200, NumEdges: 1600, Seed: 5}
	var mu sync.Mutex
	failures := make(map[int]string)
	errs, _ := runScheduledTCPRanks(t, p, comm.FaultSchedule{}, func(ctx *core.Ctx) error {
		src := core.SpecSource{Spec: spec}
		pt, err := core.MakePartitioner(ctx, src, partition.Random, spec.NumVertices, 123)
		if err != nil {
			return err
		}
		g, _, err := core.Build(ctx, src, pt)
		if err != nil {
			return err
		}
		var ref *hybridOutputs
		for _, hm := range hybridModes {
			out, err := hybridRun(ctx, g, hm.mode)
			if err != nil {
				return fmt.Errorf("mode %s: %w", hm.name, err)
			}
			if ref == nil {
				ref = out
				continue
			}
			if err := diffHybrid(hm.name, ref, out); err != nil {
				mu.Lock()
				failures[ctx.Rank()] = err.Error()
				mu.Unlock()
				return err
			}
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
