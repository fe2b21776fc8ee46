package analytics

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/partition"
)

// runWithFault executes body on p ranks where rank 0's transport fails at
// its failAt-th exchange, and requires: (a) the run returns an error, (b)
// it finishes promptly (no deadlock), and (c) the injected fault is
// attributed.
func runWithFault(t *testing.T, p int, failAt uint64, body func(ctx *core.Ctx) error) {
	t.Helper()
	trs := comm.NewLocalGroup(p)
	comms := make([]*comm.Comm, p)
	for r := range trs {
		if r == 0 {
			comms[r] = comm.New(comm.NewFaultyTransport(trs[r], failAt))
		} else {
			comms[r] = comm.New(trs[r])
		}
	}
	done := make(chan error, 1)
	go func() {
		done <- comm.RunOn(comms, func(c *comm.Comm) error {
			return body(core.NewCtx(c, 1))
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatalf("fault at exchange %d produced no error", failAt)
		}
		if !errors.Is(errFind(err), comm.ErrInjected) && !containsInjected(err) {
			// The joined error is flattened text; check the message.
			t.Fatalf("error does not mention the injected fault: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("fault at exchange %d deadlocked the group", failAt)
	}
}

func errFind(err error) error { return err }

func containsInjected(err error) bool {
	return err != nil && (errors.Is(err, comm.ErrInjected) ||
		// RunOn flattens per-rank errors into one message.
		len(err.Error()) > 0 && (contains(err.Error(), "injected fault") || contains(err.Error(), "aborted")))
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// faultBody builds a graph and runs every analytic; used so faults at
// different exchange counts land in different phases (construction, halo
// build, iteration, census).
func faultBody(ctx *core.Ctx) error {
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: 256, NumEdges: 2048, Seed: 5}
	src := core.SpecSource{Spec: spec}
	pt := partition.NewRandom(spec.NumVertices, ctx.Size(), 3)
	g, _, err := core.Build(ctx, src, pt)
	if err != nil {
		return err
	}
	if _, err := PageRank(ctx, g, DefaultPageRank()); err != nil {
		return err
	}
	if _, err := WCC(ctx, g); err != nil {
		return err
	}
	if _, err := LabelProp(ctx, g, LabelPropOptions{Iterations: 3}); err != nil {
		return err
	}
	if _, err := KCoreApprox(ctx, g, 4); err != nil {
		return err
	}
	if _, err := LargestSCC(ctx, g); err != nil {
		return err
	}
	return nil
}

func TestFaultInjectionAcrossPhases(t *testing.T) {
	// Count the total exchanges of a clean run, then inject a fault at a
	// spread of positions covering every phase.
	var total uint64
	trs := comm.NewLocalGroup(3)
	comms := make([]*comm.Comm, 3)
	counter := comm.NewFaultyTransport(trs[0], 0) // never fails, just counts
	comms[0] = comm.New(counter)
	for r := 1; r < 3; r++ {
		comms[r] = comm.New(trs[r])
	}
	if err := comm.RunOn(comms, func(c *comm.Comm) error {
		return faultBody(core.NewCtx(c, 1))
	}); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	total = counter.Calls()
	if total < 20 {
		t.Fatalf("suspiciously few exchanges in clean run: %d", total)
	}

	// Named by position rather than by number, so a kernel that changes
	// its collective count does not rename the subtests.
	positions := []struct {
		name string
		at   uint64
	}{
		{"1", 1}, {"2", 2}, {"3", 3},
		{"quarter", total / 4}, {"half", total / 2}, {"last-1", total - 1}, {"last", total},
	}
	var wg sync.WaitGroup
	for _, pos := range positions {
		at := pos.at
		wg.Add(1)
		t.Run("failAt="+pos.name, func(t *testing.T) {
			defer wg.Done()
			runWithFault(t, 3, at, faultBody)
		})
	}
	wg.Wait()
}

func TestFaultDuringTCPNotRequired(t *testing.T) {
	// The injector composes with any transport; spot-check it wraps the
	// in-process one and counts calls.
	trs := comm.NewLocalGroup(1)
	f := comm.NewFaultyTransport(trs[0], 0)
	c := comm.New(f)
	for i := 0; i < 5; i++ {
		if err := c.Barrier(); err != nil {
			t.Fatal(err)
		}
	}
	if f.Calls() != 5 {
		t.Fatalf("Calls = %d, want 5", f.Calls())
	}
}
