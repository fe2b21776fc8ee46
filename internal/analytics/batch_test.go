package analytics

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/partition"
)

// A multi-source job is its sources' solo runs on one runner. These tests
// pin that from both sides: the answers are the solo answers byte for byte,
// and the cost — in counts, which repeat exactly, not in time — is the sum
// of the solo costs less the shared prologue. Threads = 1 throughout (how
// often SSSP re-relaxes a light edge depends on the thread schedule
// otherwise) and random partitioning (every rank holds ghosts of every
// other).

// batchRoots returns k distinct roots spread over n vertices.
func batchRoots(n uint32, k int) []uint32 {
	roots := make([]uint32, k)
	for i := range roots {
		roots[i] = uint32(i) * (n - 1) / uint32(k)
	}
	return roots
}

// onBothTransports runs body on p single-threaded ranks over the inproc
// transport and, for p > 1 outside -short, over a TCP mesh.
func onBothTransports(t *testing.T, p int, body func(ctx *core.Ctx) error) {
	t.Helper()
	t.Run("inproc", func(t *testing.T) {
		if err := comm.RunLocal(p, func(c *comm.Comm) error { return body(core.NewCtx(c, 1)) }); err != nil {
			t.Fatal(err)
		}
	})
	if p == 1 || testing.Short() {
		return
	}
	t.Run("tcp", func(t *testing.T) {
		errs, _ := runScheduledTCPRanks(t, p, comm.FaultSchedule{}, comm.RetryPolicy{}, body)
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
	})
}

// TestBatchEqualsSolo: for every source-rooted analytic, the member answer
// the scheduler hands out of a coalesced job — Run(batch).ForSource(s) — is
// byte for byte the answer of running s alone, Rounds included.
func TestBatchEqualsSolo(t *testing.T) {
	tg := makeTestGraphs(t)[4] // rmat
	kinds := []Job{
		{Analytic: JobBFS, Dir: "out"},
		{Analytic: JobBFS, Dir: "in"},
		{Analytic: JobBFS, Dir: "und"},
		{Analytic: JobSSSP, MaxWeight: 8, WeightSeed: 42},
		{Analytic: JobSSSP, MaxWeight: 8, WeightSeed: 42, Delta: 3},
		{Analytic: JobHarmonic},
	}
	for _, k := range []int{2, 3, 8} {
		for _, p := range []int{1, 2, 4} {
			k, p := k, p
			t.Run(fmt.Sprintf("k=%d/p=%d", k, p), func(t *testing.T) {
				onBothTransports(t, p, func(ctx *core.Ctx) error {
					g, err := buildShard(ctx, tg, partition.Random)
					if err != nil {
						return err
					}
					roots := batchRoots(tg.n, k)
					for _, kind := range kinds {
						batch := kind
						batch.Sources = roots
						what := fmt.Sprintf("%s dir=%q delta=%d", kind.Analytic, kind.Dir, kind.Delta)
						res, err := Run(ctx, g, &batch)
						if err != nil {
							return fmt.Errorf("%s batch: %w", what, err)
						}
						for _, s := range roots {
							solo := kind
							solo.Sources = []uint32{s}
							want, err := Run(ctx, g, &solo)
							if err != nil {
								return fmt.Errorf("%s solo %d: %w", what, s, err)
							}
							member := res.ForSource(s)
							if member == nil {
								return fmt.Errorf("%s: batch result has no source %d", what, s)
							}
							if got := member.Canonical(); !bytes.Equal(got, want.Canonical()) {
								return fmt.Errorf("%s source %d:\n batch member %s\n solo         %s", what, s, got, want.Canonical())
							}
						}
					}
					return nil
				})
			})
		}
	}
}

// TestBatchBFSCostIsSumOfSolos: with the halo retained (a resident
// cluster's plan cache), a k-source BFS ships exactly the bytes, and takes
// exactly the steps, of its k solo runs — pull steps and dense exchanges
// included.
func TestBatchBFSCostIsSumOfSolos(t *testing.T) {
	tg := rmat4kGraph(t)
	const k = 8
	for _, p := range []int{2, 4} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			onBothTransports(t, p, func(ctx *core.Ctx) error {
				ctx.Plans = core.NewPlans(nil)
				g, err := buildShard(ctx, tg, partition.Random)
				if err != nil {
					return err
				}
				roots := batchRoots(tg.n, k)
				for _, dir := range []Dir{Forward, Backward, Und} {
					if _, err := BFS(ctx, g, roots[0], dir); err != nil { // builds the halo once
						return err
					}
					ctx.Comm.ResetStats()
					mb, err := MultiBFS(ctx, g, roots, dir)
					if err != nil {
						return err
					}
					batchSent := ctx.Comm.TakeStats().BytesSent
					ctx.Comm.ResetStats()
					var soloSteps obs.TraversalStats
					for _, root := range roots {
						b, err := BFS(ctx, g, root, dir)
						if err != nil {
							return err
						}
						soloSteps.Merge(b.Traversal)
					}
					soloSent := ctx.Comm.TakeStats().BytesSent
					if batchSent != soloSent {
						return fmt.Errorf("dir=%d: batch sent %d bytes, its %d solo runs %d", dir, batchSent, k, soloSent)
					}
					if mb.Traversal != soloSteps {
						return fmt.Errorf("dir=%d: batch traversal %+v, solo sum %+v", dir, mb.Traversal, soloSteps)
					}
					if mb.Traversal.PullSteps == 0 {
						return fmt.Errorf("dir=%d: no pull step in %d traversals; the graph no longer exercises the adaptive engine", dir, k)
					}
				}
				return nil
			})
		})
	}
}

// TestBatchSSSPSharesPrologue: a k-source SSSP job weighs and splits the
// out-edges once, and every source's schedule — Δ, rounds, bucket and
// exchange counters — is its solo run's.
func TestBatchSSSPSharesPrologue(t *testing.T) {
	tg := rmat4kGraph(t)
	const k = 8
	w := HashWeights(7, 8)
	for _, p := range []int{1, 2, 4} {
		for _, delta := range []uint64{0, 3} {
			p, delta := p, delta
			t.Run(fmt.Sprintf("p=%d/delta=%d", p, delta), func(t *testing.T) {
				onBothTransports(t, p, func(ctx *core.Ctx) error {
					tr := obs.NewTracer(ctx.Rank(), 1<<16, time.Now())
					ctx.Comm.SetTracer(tr)
					defer ctx.Comm.SetTracer(nil)
					ctx.Plans = core.NewPlans(nil)
					g, err := buildShard(ctx, tg, partition.Random)
					if err != nil {
						return err
					}
					roots := batchRoots(tg.n, k)
					if _, err := SSSPDelta(ctx, g, roots[0], w, delta); err != nil { // builds the halo once
						return err
					}
					tr.Reset()
					runs, err := ssspRuns(ctx, g, roots, edgeWeights{fn: w}, delta)
					if err != nil {
						return err
					}
					spans := map[string]int{}
					for _, e := range tr.Events() {
						spans[e.Name]++
					}
					if tr.Dropped() != 0 {
						return fmt.Errorf("tracer dropped %d events", tr.Dropped())
					}
					if spans[SpanSSSPWeigh] != 1 || spans[SpanSSSPSplit] != 1 {
						return fmt.Errorf("%d-source job: %d weigh and %d split spans, want 1 and 1",
							k, spans[SpanSSSPWeigh], spans[SpanSSSPSplit])
					}
					for s, root := range roots {
						solo, err := SSSPDelta(ctx, g, root, w, delta)
						if err != nil {
							return err
						}
						got := runs[s]
						if got.Buckets != solo.Buckets || got.Rounds != solo.Rounds || got.Delta != solo.Delta ||
							got.Reached != solo.Reached || got.Traversal != solo.Traversal {
							return fmt.Errorf("root %d: batch member ran %+v rounds=%d Δ=%d %+v,\n solo %+v rounds=%d Δ=%d %+v",
								root, got.Buckets, got.Rounds, got.Delta, got.Traversal,
								solo.Buckets, solo.Rounds, solo.Delta, solo.Traversal)
						}
						for v := range solo.Dist {
							if got.Dist[v] != solo.Dist[v] {
								return fmt.Errorf("root %d: dist[%d] = %d, solo %d", root, v, got.Dist[v], solo.Dist[v])
							}
						}
					}
					return nil
				})
			})
		}
	}
}

// TestBatchBFSAllocation: a k = 8 BFS job allocates one solo run's scratch
// plus its eight result arrays — not eight status arrays, and no
// per-source queues. TotalAlloc is process-wide, so the group measures
// between barriers and the bound covers all ranks.
func TestBatchBFSAllocation(t *testing.T) {
	tg := rmat4kGraph(t)
	const p, k = 2, 8
	err := comm.RunLocal(p, func(c *comm.Comm) error {
		ctx := core.NewCtx(c, 1)
		ctx.Plans = core.NewPlans(nil)
		g, err := buildShard(ctx, tg, partition.Random)
		if err != nil {
			return err
		}
		roots := batchRoots(tg.n, k)
		// measure returns the bytes the whole group allocated inside fn.
		measure := func(fn func() error) (uint64, error) {
			var before, after runtime.MemStats
			if err := c.Barrier(); err != nil {
				return 0, err
			}
			runtime.ReadMemStats(&before)
			if err := c.Barrier(); err != nil {
				return 0, err
			}
			if err := fn(); err != nil {
				return 0, err
			}
			if err := c.Barrier(); err != nil {
				return 0, err
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc, c.Barrier()
		}
		solo := func() error { _, err := BFS(ctx, g, roots[0], Forward); return err }
		batch := func() error { _, err := MultiBFS(ctx, g, roots, Forward); return err }
		// Warm the halo and the communicator's buffers with both shapes.
		if err := solo(); err != nil {
			return err
		}
		if err := batch(); err != nil {
			return err
		}
		soloBytes, err := measure(solo)
		if err != nil {
			return err
		}
		batchBytes, err := measure(batch)
		if err != nil {
			return err
		}
		levels := uint64(k) * uint64(tg.n) * 4 // k result arrays over all ranks
		if bound := soloBytes + levels + soloBytes/4; c.Rank() == 0 && batchBytes > bound {
			return fmt.Errorf("k=%d batch allocated %d bytes, solo %d: over solo + %d result bytes + 25%% slack = %d",
				k, batchBytes, soloBytes, levels, bound)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
