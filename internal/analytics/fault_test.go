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
// its failAt-th round, and requires: (a) the run returns an error, (b) it
// finishes promptly (no deadlock), and (c) the injected fault is
// attributed.
func runWithFault(t *testing.T, p int, failAt uint64, body func(ctx *core.Ctx) error) {
	t.Helper()
	fatal := comm.FaultSchedule{Faults: []comm.Fault{{Rank: 0, Round: failAt, Op: comm.FaultFatal}}}
	trs := comm.NewLocalGroup(p)
	comms := make([]*comm.Comm, p)
	for r := range trs {
		comms[r] = comm.New(comm.NewScheduledTransport(trs[r], fatal))
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
	// Count the total rounds of a clean run, then inject a fault at a
	// spread of positions covering every phase.
	total := countCleanRounds(t, 3, faultBody)
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

// roundCounter counts the rounds its transport runs.
type roundCounter struct {
	comm.Transport
	n uint64
}

func (c *roundCounter) Exchange(out [][]byte) ([][]byte, time.Duration, error) {
	c.n++
	return c.Transport.Exchange(out)
}

func (c *roundCounter) Abort() { c.Transport.(interface{ Abort() }).Abort() }

// TestFaultRoundsMatchStats pins the round numbering the fault tests aim
// by: a wrapper's count of transport rounds equals the Comm's Exchanges on
// every rank, a FaultFatal at that count fails the last round, and one past
// it never fires.
func TestFaultRoundsMatchStats(t *testing.T) {
	const p = 3
	trs := comm.NewLocalGroup(p)
	counters := make([]*roundCounter, p)
	comms := make([]*comm.Comm, p)
	for r := range trs {
		counters[r] = &roundCounter{Transport: trs[r]}
		comms[r] = comm.New(counters[r])
	}
	if err := comm.RunOn(comms, func(c *comm.Comm) error {
		return faultBody(core.NewCtx(c, 1))
	}); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	total := counters[0].n
	for r, c := range comms {
		if got := c.TakeStats().Exchanges; got != counters[r].n || got != total {
			t.Fatalf("rank %d: stats count %d rounds, the wrapper %d, rank 0 %d", r, got, counters[r].n, total)
		}
	}

	run := func(round uint64) ([]error, *comm.ScheduledTransport) {
		fatal := comm.FaultSchedule{Faults: []comm.Fault{{Rank: 0, Round: round, Op: comm.FaultFatal}}}
		sts := make([]*comm.ScheduledTransport, p)
		for r, tr := range comm.NewLocalGroup(p) {
			sts[r] = comm.NewScheduledTransport(tr, fatal)
			comms[r] = comm.New(sts[r])
		}
		return comm.RunOnAll(comms, func(c *comm.Comm) error {
			return faultBody(core.NewCtx(c, 1))
		}), sts[0]
	}
	errs, st := run(total)
	if !errors.Is(errs[0], comm.ErrInjected) || st.Injected() != 1 {
		t.Fatalf("fatal at round %d: rank 0 returned %v after %d injections, want ErrInjected from one", total, errs[0], st.Injected())
	}
	if got := comms[0].TakeStats().Exchanges; got != total {
		t.Fatalf("fatal at round %d failed round %d, want the last", total, got)
	}
	errs, st = run(total + 1)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("fatal at round %d: rank %d failed: %v", total+1, r, err)
		}
	}
	if st.Injected() != 0 {
		t.Fatalf("fatal at round %d fired on a %d-round run", total+1, total)
	}
}
