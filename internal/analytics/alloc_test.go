package analytics

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/partition"
)

// TestExchangeZeroAlloc asserts the acceptance bar for the zero-copy data
// path: after warm-up, a halo exchange performs zero heap allocations, also
// when the element type changes from one exchange to the next.
// testing.AllocsPerRun measures process-global mallocs, so the measurement
// is collective — rank 0 measures while the remaining ranks run the same
// number of exchanges concurrently, and an allocation on any rank fails the
// test.
func TestExchangeZeroAlloc(t *testing.T) {
	const p = 4
	const runs = 25
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: 1 << 10, NumEdges: 1 << 13, Seed: 7}
	src := core.SpecSource{Spec: spec}
	err := comm.RunLocal(p, func(c *comm.Comm) error {
		ctx := core.NewCtx(c, 1)
		pt, err := core.MakePartitioner(ctx, src, partition.Random, spec.NumVertices, 3)
		if err != nil {
			return err
		}
		g, _, err := core.Build(ctx, src, pt)
		if err != nil {
			return err
		}
		halo, err := BuildHalo(ctx, g, DirsOut)
		if err != nil {
			return err
		}
		state := make([]float64, g.NTotal())
		for i := range state {
			state[i] = float64(i)
		}
		// A retained halo serves float64 (PageRank), uint64 (SSSP, k-core)
		// and uint32 (WCC) kernels in turn: one op is the alternating
		// sequence, so a staging buffer keyed by element type would
		// reallocate three times per op.
		dist := make([]uint64, g.NTotal())
		colors := make([]uint32, g.NTotal())
		exchangeAll := func() error {
			if err := Exchange(ctx, halo, state); err != nil {
				return err
			}
			if err := Exchange(ctx, halo, dist); err != nil {
				return err
			}
			return Exchange(ctx, halo, colors)
		}
		// Warm-up sizes the retained scratch on the halo and the byte
		// buffers on the communicator.
		for i := 0; i < 3; i++ {
			if err := exchangeAll(); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			// AllocsPerRun invokes the body runs+1 times (one extra
			// warm-up call before it starts counting).
			avg := testing.AllocsPerRun(runs, func() {
				if err := exchangeAll(); err != nil {
					t.Error(err)
				}
			})
			if avg != 0 {
				return fmt.Errorf("steady-state alternating-type Exchange allocates %v times per op, want 0", avg)
			}
			return nil
		}
		for i := 0; i < runs+1; i++ {
			if err := exchangeAll(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBFSAllocationPin bounds what the second two-rank BFS on a plan cache
// allocates, group-wide (MemStats is process-global: rank 0 measures between
// two barriers), in forced push and in adaptive mode: 16 B per vertex slot —
// the levels, and queues that may still grow — and 32 B per sparse claim
// shipped, for the claim round's staging, which grows to the widest sparse
// level rather than holding a claim per ghost and queue slot from the start.
// TestBFSRunnerWarmAllocationPin bounds the steady state after it.
func TestBFSAllocationPin(t *testing.T) {
	tg := kcoreGoldenGraphs(t)[0]
	for _, mode := range []core.TraversalMode{core.TraversePush, core.TraverseAdaptive} {
		err := comm.RunLocal(2, func(c *comm.Comm) error {
			ctx := core.NewCtx(c, 1)
			ctx.Plans = core.NewPlans(nil)
			ctx.Traverse = mode
			g, err := buildShard(ctx, tg, partition.Random)
			if err != nil {
				return err
			}
			if _, err := BFS(ctx, g, 0, Forward); err != nil { // builds the halo, sizes the communicator's buffers
				return err
			}
			var before, after runtime.MemStats
			if c.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
			if _, err := comm.Allreduce(c, uint64(0), comm.OpSum); err != nil {
				return err
			}
			b, err := BFS(ctx, g, 0, Forward)
			if err != nil {
				return err
			}
			if _, err := comm.Allreduce(c, uint64(0), comm.OpSum); err != nil {
				return err
			}
			if c.Rank() == 0 {
				runtime.ReadMemStats(&after)
			}
			sum, err := comm.AllreduceSlice(c, []uint64{uint64(g.NTotal()), b.Traversal.SparseBytes / 8}, comm.OpSum)
			if err != nil || c.Rank() != 0 {
				return err
			}
			bytes, slots, claims := after.TotalAlloc-before.TotalAlloc, sum[0], sum[1]
			limit := 16*slots + 32*claims + 16<<10
			t.Logf("mode %d: allocated %d B for %d slots and %d sparse claims (limit %d B)", mode, bytes, slots, claims, limit)
			if bytes > limit {
				return fmt.Errorf("mode %d: BFS allocated %d B, over 16 B × %d slots + 32 B × %d claims + 16 KiB = %d", mode, bytes, slots, claims, limit)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// groupAllocBytes runs fn collectively and returns, on rank 0, the bytes
// the whole group allocated during it: MemStats is process-global, so rank 0
// reads it between two barriers while every rank runs fn.
func groupAllocBytes(c *comm.Comm, fn func() error) (uint64, error) {
	var before, after runtime.MemStats
	if c.Rank() == 0 {
		runtime.ReadMemStats(&before)
	}
	if _, err := comm.Allreduce(c, uint64(0), comm.OpSum); err != nil {
		return 0, err
	}
	if err := fn(); err != nil {
		return 0, err
	}
	if _, err := comm.Allreduce(c, uint64(0), comm.OpSum); err != nil {
		return 0, err
	}
	if c.Rank() == 0 {
		runtime.ReadMemStats(&after)
	}
	return after.TotalAlloc - before.TotalAlloc, nil
}

// TestBFSRunnerWarmAllocationPin bounds what a BFS-family call allocates,
// group-wide, once its generation's runner is warm: its answers and nothing
// the graph fixes. In every traversal mode the third BFS allocates at most
// its levels, 4 B × ΣNLoc, plus 8 KiB; an 8-root bfs batch at most eight
// times that; an 8-source Harmonic job at most that per source. A runner
// built per call pays its status array over NTotal and its queues again.
func TestBFSRunnerWarmAllocationPin(t *testing.T) {
	tg := kcoreGoldenGraphs(t)[0]
	roots := batchRoots(tg.n, 8)
	for _, mode := range []core.TraversalMode{core.TraversePush, core.TraverseDense, core.TraverseAdaptive} {
		err := comm.RunLocal(2, func(c *comm.Comm) error {
			ctx := core.NewCtx(c, 1)
			ctx.Plans = core.NewPlans(nil)
			ctx.Traverse = mode
			g, err := buildShard(ctx, tg, partition.Random)
			if err != nil {
				return err
			}
			nloc, err := comm.Allreduce(c, uint64(g.NLoc), comm.OpSum)
			if err != nil {
				return err
			}
			per := 4*nloc + 8<<10
			cases := []struct {
				name  string
				limit uint64
				run   func() error
			}{
				{"bfs", per, func() error { _, err := BFS(ctx, g, 0, Forward); return err }},
				{"multibfs8", 8 * per, func() error { _, err := multiBFS(ctx, g, roots, Forward); return err }},
				{"harmonic8", 8 * per, func() error {
					_, err := Run(ctx, g, &Job{Analytic: JobHarmonic, Sources: roots})
					return err
				}},
			}
			var over []error // rank 0's; the ranks stay in lockstep to the end
			for _, tc := range cases {
				// The first call builds the halo and the runner, the second
				// grows the queues and staging to this call's widest level.
				for range 2 {
					if err := tc.run(); err != nil {
						return err
					}
				}
				// MemStats also counts whatever other goroutines of the
				// process allocate meanwhile: the least of three runs is
				// the call's own.
				bytes := ^uint64(0)
				for range 3 {
					b, err := groupAllocBytes(c, tc.run)
					if err != nil {
						return err
					}
					bytes = min(bytes, b)
				}
				if c.Rank() != 0 {
					continue
				}
				t.Logf("mode %d %s: allocated %d B (limit %d B)", mode, tc.name, bytes, tc.limit)
				if bytes > tc.limit {
					over = append(over, fmt.Errorf("mode %d: warm %s allocated %d B, over %d B", mode, tc.name, bytes, tc.limit))
				}
			}
			return errors.Join(over...)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
