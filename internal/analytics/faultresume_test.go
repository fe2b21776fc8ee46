package analytics

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
)

// This file holds the end-to-end fault-tolerance acceptance tests: a run
// killed by an injected comm fault resumes from its last checkpoint on a
// fresh transport group and finishes bitwise-identical to an uninterrupted
// run (inproc), and a TCP PageRank run hit by a fatal fault surfaces a
// CommError on every rank.

// runScheduledRanks runs body over p inproc ranks whose transports apply the
// given fault schedule, returning per-rank errors (a failing rank aborts the
// group so nothing deadlocks).
func runScheduledRanks(t *testing.T, p int, s comm.FaultSchedule, body func(ctx *core.Ctx) error) ([]error, []*comm.ScheduledTransport) {
	t.Helper()
	trs := comm.NewLocalGroup(p)
	sts := make([]*comm.ScheduledTransport, p)
	comms := make([]*comm.Comm, p)
	for r := range trs {
		sts[r] = comm.NewScheduledTransport(trs[r], s)
		comms[r] = comm.New(sts[r])
	}
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := range comms {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					errs[r] = fmt.Errorf("rank %d panicked: %v", r, rec)
				}
				if errs[r] != nil {
					sts[r].Abort()
				}
			}()
			errs[r] = body(core.NewCtx(comms[r], 1))
		}(r)
	}
	wg.Wait()
	return errs, sts
}

// countCleanRounds measures the transport rounds one full body consumes on a
// fault-free run (every rank counts the same rounds — the model is SPMD).
func countCleanRounds(t *testing.T, p int, body func(ctx *core.Ctx) error) uint64 {
	t.Helper()
	comms := make([]*comm.Comm, p)
	for r, tr := range comm.NewLocalGroup(p) {
		comms[r] = comm.New(tr)
	}
	if err := comm.RunOn(comms, func(c *comm.Comm) error {
		return body(core.NewCtx(c, 1))
	}); err != nil {
		t.Fatalf("clean probe run failed: %v", err)
	}
	return comms[0].TakeStats().Exchanges
}

func TestPageRankKillAndResumeInproc(t *testing.T) {
	const p, iters, every, seed = 3, 10, 3, 51
	golden := make(map[int][]float64)
	var mu sync.Mutex
	prBody := func(store *snapStore, resume func(rank int) *Checkpoint, out map[int][]float64) func(ctx *core.Ctx) error {
		return func(ctx *core.Ctx) error {
			g, err := buildCkptGraph(ctx, seed)
			if err != nil {
				return err
			}
			opts := DefaultPageRank()
			opts.Iterations = iters
			if store != nil {
				opts.Checkpoint.Every = every
				opts.Checkpoint.Sink = store.sink
			}
			if resume != nil {
				opts.Checkpoint.Resume = resume(ctx.Rank())
			}
			res, err := PageRank(ctx, g, opts)
			if err != nil {
				return err
			}
			if out != nil {
				mu.Lock()
				out[ctx.Rank()] = res.Scores
				mu.Unlock()
			}
			return nil
		}
	}

	// Fault-free run: golden scores, and the total round count that lets us
	// aim the kill at the last PageRank iteration.
	total := countCleanRounds(t, p, prBody(nil, nil, golden))
	if total < 2*iters {
		t.Fatalf("suspiciously few rounds in clean run: %d", total)
	}

	// Kill: a hard fault on rank 1 in the last round, the final iteration's
	// dangling-mass reduce (no refresh follows the last iteration). Rank 1
	// has run every prior round, so its snapshots for iterations 3, 6, 9 are
	// all durable; other ranks may lag by a few rounds (inproc deposits are
	// buffered) but each holds a consistent prefix of the same snapshots.
	store := newSnapStore()
	sched := comm.FaultSchedule{Faults: []comm.Fault{{Rank: 1, Round: total, Op: comm.FaultFatal}}}
	errs, _ := runScheduledRanks(t, p, sched, prBody(store, nil, nil))
	for r, err := range errs {
		var ce *comm.CommError
		if err == nil || !errors.As(err, &ce) {
			t.Fatalf("killed run rank %d: want CommError, got %v", r, err)
		}
	}
	if !errors.Is(errs[1], comm.ErrInjected) {
		t.Fatalf("rank 1: want ErrInjected in the chain, got %v", errs[1])
	}
	if cp := store.latest(1, iters); cp == nil || cp.Iter != 9 {
		t.Fatalf("rank 1: last surviving snapshot %+v, want iteration 9", cp)
	}
	// Recovery resumes from the newest iteration durable on EVERY rank.
	resumeIter := iters
	for r := 0; r < p; r++ {
		cp := store.latest(r, iters)
		if cp == nil {
			t.Fatalf("rank %d: no surviving snapshot", r)
		}
		if cp.Iter < resumeIter {
			resumeIter = cp.Iter
		}
	}
	if resumeIter < every || resumeIter%every != 0 {
		t.Fatalf("globally durable iteration = %d, want a positive multiple of %d", resumeIter, every)
	}

	// Resume on a rebuilt (fresh) transport group from the globally durable
	// snapshots: bitwise-identical to the uninterrupted run.
	resumed := make(map[int][]float64)
	runRanks(t, p, prBody(nil, func(rank int) *Checkpoint { return store.latest(rank, resumeIter) }, resumed))
	for r := 0; r < p; r++ {
		if len(golden[r]) == 0 || len(golden[r]) != len(resumed[r]) {
			t.Fatalf("rank %d: %d vs %d scores", r, len(golden[r]), len(resumed[r]))
		}
		for v := range golden[r] {
			if math.Float64bits(golden[r][v]) != math.Float64bits(resumed[r][v]) {
				t.Fatalf("rank %d vertex %d: resumed %v != golden %v", r, v, resumed[r][v], golden[r][v])
			}
		}
	}
}

// reserveTCPPorts mirrors the comm package's test helper: grab n distinct
// loopback addresses by briefly listening on ephemeral ports.
func reserveTCPPorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// runScheduledTCPRanks runs body over a TCP mesh of p ranks, each transport
// wrapped with the fault schedule; per-rank errors are returned and a
// failing rank's Close (plus the per-frame deadline) unblocks its peers. A
// watchdog converts any residual deadlock into a test failure.
func runScheduledTCPRanks(t *testing.T, p int, s comm.FaultSchedule, body func(ctx *core.Ctx) error) ([]error, []*comm.ScheduledTransport) {
	t.Helper()
	addrs := reserveTCPPorts(t, p)
	errs := make([]error, p)
	sts := make([]*comm.ScheduledTransport, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := comm.DialMesh(r, addrs, 10*time.Second)
			if err != nil {
				errs[r] = fmt.Errorf("dial: %w", err)
				return
			}
			tr.SetExchangeDeadline(10 * time.Second)
			sts[r] = comm.NewScheduledTransport(tr, s)
			c := comm.New(sts[r])
			defer c.Close()
			defer func() {
				if rec := recover(); rec != nil {
					errs[r] = fmt.Errorf("rank %d panicked: %v", r, rec)
				}
			}()
			errs[r] = body(core.NewCtx(c, 1))
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(90 * time.Second):
		t.Fatal("TCP fault run deadlocked")
	}
	return errs, sts
}

// TestTCPPageRankFaultAcceptance pins the failure half of the fault model
// over real sockets: an injected fatal fault in a TCP PageRank run surfaces
// a CommError on every rank within the deadline.
func TestTCPPageRankFaultAcceptance(t *testing.T) {
	const p, iters, seed = 3, 10, 61
	body := func(ctx *core.Ctx) error {
		g, err := buildCkptGraph(ctx, seed)
		if err != nil {
			return err
		}
		opts := DefaultPageRank()
		opts.Iterations = iters
		_, err = PageRank(ctx, g, opts)
		return err
	}
	fatal := comm.FaultSchedule{Faults: []comm.Fault{{Rank: 1, Round: 6, Op: comm.FaultFatal}}}
	errs, _ := runScheduledTCPRanks(t, p, fatal, body)
	for r, err := range errs {
		var ce *comm.CommError
		if err == nil || !errors.As(err, &ce) {
			t.Errorf("fatal run rank %d: want CommError, got %v", r, err)
		}
	}
	if !errors.Is(errs[1], comm.ErrInjected) {
		t.Errorf("rank 1: want ErrInjected in the chain, got %v", errs[1])
	}
}
