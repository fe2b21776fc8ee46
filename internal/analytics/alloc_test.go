package analytics

import (
	"fmt"
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
