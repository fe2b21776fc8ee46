package analytics

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/gen"
	"repro/internal/partition"
)

// equivJobs covers every analytic job kind once, with parameters that
// exercise weighted and unweighted paths.
func equivJobs() []*Job {
	return []*Job{
		{Analytic: JobBFS, Sources: []uint32{3}},
		{Analytic: JobSSSP, Sources: []uint32{5}, MaxWeight: 9, WeightSeed: 17},
		{Analytic: JobWCC},
		{Analytic: JobPageRank, Iterations: 8},
		{Analytic: JobKCore},
		{Analytic: JobPageRankWeighted, Iterations: 6, MaxWeight: 7, WeightSeed: 4},
		{Analytic: JobLabelProp, Iterations: 6},
		{Analytic: JobHarmonic, Sources: []uint32{11}},
	}
}

// mutationBatches builds a deterministic adversarial schedule against the
// base list: churny inserts/deletes including duplicates, misses, and
// re-inserts (cut edges arise naturally under any partitioning).
func mutationBatches(seed int64, n uint32, base edge.List, batches, perBatch int) ([]edge.Batch, edge.List) {
	rng := rand.New(rand.NewSource(seed))
	cur := append(edge.List(nil), base...)
	var out []edge.Batch
	for b := 0; b < batches; b++ {
		var batch edge.Batch
		for len(batch) < perBatch {
			switch rng.Intn(6) {
			case 0, 1:
				batch = append(batch, edge.Mutation{Op: edge.OpInsert, Src: uint32(rng.Intn(int(n))), Dst: uint32(rng.Intn(int(n)))})
			case 2, 3:
				if cur.Len() > 0 {
					i := rng.Intn(cur.Len())
					batch = append(batch, edge.Mutation{Op: edge.OpDelete, Src: cur.Src(i), Dst: cur.Dst(i)})
				}
			case 4:
				batch = append(batch, edge.Mutation{Op: edge.OpDelete, Src: uint32(rng.Intn(int(n))), Dst: uint32(rng.Intn(int(n)))})
			case 5:
				u, v := uint32(rng.Intn(int(n))), uint32(rng.Intn(int(n)))
				batch = append(batch,
					edge.Mutation{Op: edge.OpDelete, Src: u, Dst: v},
					edge.Mutation{Op: edge.OpInsert, Src: u, Dst: v})
			}
		}
		cur = batch.ApplyTo(cur)
		out = append(out, batch)
	}
	return out, cur
}

// TestAnalyticsEquivalentOnMergedOverlay is the kernel-level differential
// battery: after a seeded mutation schedule, every analytic on the merged
// overlay graph must produce byte-identical canonical results to the same
// analytic on a graph rebuilt from scratch from the mutated edge list.
// The rebuild reads the mutated list in (src, dst) order, so its rows are
// in the order a merge writes (a build keeps input order) and even
// summation-order-sensitive kernels (PageRank) match bitwise.
func TestAnalyticsEquivalentOnMergedOverlay(t *testing.T) {
	const n = 260
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: n, NumEdges: 1800, Seed: 31}
	base, err := spec.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	batches, mutated := mutationBatches(9, n, base, 3, 60)
	keys := make([]uint64, mutated.Len())
	for i := range keys {
		keys[i] = uint64(mutated.Src(i))<<32 | uint64(mutated.Dst(i))
	}
	slices.Sort(keys)
	mutated = mutated[:0]
	for _, k := range keys {
		mutated.Push(uint32(k>>32), uint32(k))
	}

	for _, p := range []int{1, 3, 4} {
		for _, kind := range []partition.Kind{partition.VertexBlock, partition.PuLPKind} {
			t.Run(fmt.Sprintf("p=%d/%v", p, kind), func(t *testing.T) {
				err := comm.RunLocal(p, func(c *comm.Comm) error {
					ctx := core.NewCtx(c, 2)
					src := core.ListSource{Edges: base}
					pt, err := core.MakePartitioner(ctx, src, kind, n, 7)
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
					merged, err := core.MergeDelta(d, mGlobal)
					if err != nil {
						return err
					}
					rebuilt, _, err := core.Build(ctx, core.ListSource{Edges: mutated}, pt)
					if err != nil {
						return err
					}
					for _, job := range equivJobs() {
						job.Normalize()
						got, err := Run(ctx, merged, job)
						if err != nil {
							return fmt.Errorf("%s on merged: %w", job.Analytic, err)
						}
						want, err := Run(ctx, rebuilt, job)
						if err != nil {
							return fmt.Errorf("%s on rebuilt: %w", job.Analytic, err)
						}
						if !bytes.Equal(got.Canonical(), want.Canonical()) {
							return fmt.Errorf("%s: merged %s, rebuilt %s", job.Analytic, got.Canonical(), want.Canonical())
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

// TestMutatingJobsRejectedByRun pins that ingest descriptors cannot reach
// the kernel dispatcher.
func TestMutatingJobsRejectedByRun(t *testing.T) {
	err := comm.RunLocal(1, func(c *comm.Comm) error {
		ctx := core.NewCtx(c, 1)
		src := core.ListSource{Edges: edge.List{0, 1, 1, 2}}
		pt, err := core.MakePartitioner(ctx, src, partition.VertexBlock, 3, 1)
		if err != nil {
			return err
		}
		g, _, err := core.Build(ctx, src, pt)
		if err != nil {
			return err
		}
		mut := &Job{Analytic: JobMutate, Mutations: edge.Batch{{Op: edge.OpInsert, Src: 0, Dst: 2}}}
		if _, err := Run(ctx, g, mut); err == nil {
			return fmt.Errorf("mutate job ran as analytic")
		}
		if _, err := Run(ctx, g, &Job{Analytic: JobCompact}); err == nil {
			return fmt.Errorf("compact job ran as analytic")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
