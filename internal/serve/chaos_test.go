package serve

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/partition"
)

// Chaos conformance battery for shard replication + query failover: kill a
// host mid-serve (by seeded fault schedule or the Kill API) and assert
// every admitted query either completes with an answer byte-identical to
// the healthy cluster's, or fails with a clean typed error — never a
// silently wrong result, never a dropped query.
//
// All chaos clusters run Threads: 1 so a degraded host serving two slots
// runs each at the same worker count as the healthy baseline; with the
// slot count fixed by design, every kernel then executes the exact same
// SPMD schedule and byte identity is the hard invariant, not a tolerance.

// chaosQueries is the ≥16-query mixed workload every scenario pushes
// through the scheduler: batchable traversal queries (with duplicates, to
// exercise batching and dispatch-time dedupe), whole-graph analytics, and
// weighted kernels.
func chaosQueries() []*analytics.Job {
	mk := func(j analytics.Job) *analytics.Job {
		cp := j
		cp.Normalize()
		return &cp
	}
	var qs []*analytics.Job
	for s := uint32(1); s <= 6; s++ {
		qs = append(qs, mk(analytics.Job{Analytic: analytics.JobBFS, Sources: []uint32{s}}))
	}
	for s := uint32(10); s <= 13; s++ {
		qs = append(qs, mk(analytics.Job{Analytic: analytics.JobSSSP, Sources: []uint32{s}, MaxWeight: 8, WeightSeed: 5}))
	}
	qs = append(qs,
		mk(analytics.Job{Analytic: analytics.JobPageRank}),
		mk(analytics.Job{Analytic: analytics.JobWCC}),
		mk(analytics.Job{Analytic: analytics.JobKCore}),
		mk(analytics.Job{Analytic: analytics.JobLabelProp}),
		mk(analytics.Job{Analytic: analytics.JobPageRankWeighted, MaxWeight: 8, WeightSeed: 5}),
		// Duplicates: the BFS twin joins the head batch, the PageRank twin
		// lands after its original completed and must be answered by the
		// dispatch-time cache dedupe, not a second SPMD run.
		mk(analytics.Job{Analytic: analytics.JobBFS, Sources: []uint32{1}}),
		mk(analytics.Job{Analytic: analytics.JobSSSP, Sources: []uint32{10}, MaxWeight: 8, WeightSeed: 5}),
		mk(analytics.Job{Analytic: analytics.JobPageRank}),
	)
	return qs
}

// chaosClusterConfig is the shared base: 4 slots, 2 replicas per shard.
func chaosClusterConfig() ClusterConfig {
	return ClusterConfig{
		Ranks:     4,
		Threads:   1,
		Source:    core.SpecSource{Spec: testSpec},
		Partition: partition.Random,
		Seed:      7,
		Epoch:     1,
		Replicas:  2,
	}
}

// chaosSchedConfig keeps batching on and the cache big enough for dedupe.
func chaosSchedConfig() SchedConfig {
	return SchedConfig{QueueCap: 64, BatchMax: 8, CacheCap: 64}
}

// runBattery spins up a cluster+scheduler, pre-queues every query on the
// paused scheduler (so dispatch order — and therefore batching — is
// deterministic), starts it, and waits for every request to reach a
// terminal state. The cluster is returned still open; the caller owns
// shutdown.
func runBattery(t *testing.T, cfg ClusterConfig, queries []*analytics.Job) (*Cluster, *Scheduler, []RequestView) {
	t.Helper()
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	s := NewScheduler(cl, chaosSchedConfig())
	deadline := time.Now().Add(2 * time.Minute)
	ids := make([]string, len(queries))
	for i, q := range queries {
		cp := *q // Submit normalizes in place; keep callers' jobs pristine
		id, err := s.Submit(&cp, deadline)
		if err != nil {
			t.Fatalf("submit query %d: %v", i, err)
		}
		ids[i] = id
	}
	s.Start()
	views := make([]RequestView, len(ids))
	for i, id := range ids {
		views[i] = waitDone(t, s, id)
	}
	s.Close()
	return cl, s, views
}

// healthyBaseline runs the workload on a fault-free replicated cluster and
// returns each request's canonical answer bytes, by submission index.
func healthyBaseline(t *testing.T, queries []*analytics.Job) [][]byte {
	t.Helper()
	cl, _, views := runBattery(t, chaosClusterConfig(), queries)
	defer func() {
		if err := cl.Close(); err != nil {
			t.Errorf("healthy cluster close: %v", err)
		}
	}()
	out := make([][]byte, len(views))
	for i, v := range views {
		if v.State != StateDone {
			t.Fatalf("healthy run: query %d state %s (err %q)", i, v.State, v.Err)
		}
		out[i] = v.Result.Canonical()
	}
	return out
}

// assertIdentical checks the chaos run's completed answers against the
// healthy baseline, byte for byte.
func assertIdentical(t *testing.T, views []RequestView, healthy [][]byte) {
	t.Helper()
	for i, v := range views {
		if v.State != StateDone {
			t.Fatalf("query %d: state %s (err %q), want done", i, v.State, v.Err)
		}
		if got := v.Result.Canonical(); !bytes.Equal(got, healthy[i]) {
			t.Fatalf("query %d: answer diverged from healthy cluster:\n  chaos:   %s\n  healthy: %s", i, got, healthy[i])
		}
	}
}

// countingTransport counts a slot's transport rounds so fault schedules
// can aim past the deterministic build prefix: one Exchange per logical
// round, the same round numbering ScheduledTransport uses.
type countingTransport struct {
	tr comm.Transport
	n  *atomic.Uint64
}

func (t *countingTransport) Rank() int    { return t.tr.Rank() }
func (t *countingTransport) Size() int    { return t.tr.Size() }
func (t *countingTransport) Close() error { return t.tr.Close() }
func (t *countingTransport) Abort() {
	if a, ok := t.tr.(interface{ Abort() }); ok {
		a.Abort()
	}
}

func (t *countingTransport) Exchange(out [][]byte) ([][]byte, time.Duration, error) {
	t.n.Add(1)
	return t.tr.Exchange(out)
}

func (t *countingTransport) Release() (time.Duration, error) { return t.tr.Release() }

// buildRounds measures how many transport rounds generation zero spends
// before the cluster reports ready (scan, partition, build, replicate,
// membership broadcast). The build is deterministic, so a fault aimed at
// buildRounds+delta lands delta rounds into serving.
func buildRounds(t *testing.T, cfg ClusterConfig) uint64 {
	t.Helper()
	var n atomic.Uint64
	cfg.WrapTransport = func(gen uint64, slot int, tr comm.Transport) comm.Transport {
		return &countingTransport{tr: tr, n: &n}
	}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatalf("NewCluster (round counting): %v", err)
	}
	perSlot := n.Load() / uint64(cfg.Ranks)
	if err := cl.Close(); err != nil {
		t.Fatalf("closing round-counting cluster: %v", err)
	}
	if perSlot == 0 {
		t.Fatal("counted zero build rounds")
	}
	return perSlot
}

// fatalAt builds the chaos seam: generation zero's transports are wrapped
// in a ScheduledTransport that kills victim's link at the given logical
// round; later generations run clean.
func fatalAt(victim int, round uint64) func(gen uint64, slot int, tr comm.Transport) comm.Transport {
	schedule := comm.FaultSchedule{
		Seed:   77,
		Faults: []comm.Fault{{Rank: victim, Round: round, Op: comm.FaultFatal}},
	}
	return func(gen uint64, slot int, tr comm.Transport) comm.Transport {
		if gen == 0 {
			return comm.NewScheduledTransport(tr, schedule)
		}
		return tr
	}
}

// tcpFactory builds a fresh TCP full mesh per generation on newly reserved
// loopback ports (same reservation idiom as the comm TCP tests).
func tcpFactory(t *testing.T) TransportFactory {
	return func(gen uint64, slots int) ([]comm.Transport, error) {
		addrs := make([]string, slots)
		lns := make([]net.Listener, slots)
		for i := range addrs {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			lns[i] = ln
			addrs[i] = ln.Addr().String()
		}
		for _, ln := range lns {
			ln.Close()
		}
		trs := make([]comm.Transport, slots)
		errs := make([]error, slots)
		var wg sync.WaitGroup
		for r := 0; r < slots; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				tr, err := comm.DialMesh(r, addrs, 10*time.Second)
				if err != nil {
					errs[r] = err
					return
				}
				tr.SetExchangeDeadline(5 * time.Second)
				trs[r] = tr
			}(r)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				for _, tr := range trs {
					if tr != nil {
						tr.Close()
					}
				}
				return nil, err
			}
		}
		return trs, nil
	}
}

// TestFailoverKillRankMidServe is the acceptance scenario: ≥16 queued
// queries, a seeded fault schedule kills a host mid-serve, and every query
// completes with an answer byte-identical to the healthy cluster — zero
// wrong answers, zero dropped queries — on both transports.
func TestFailoverKillRankMidServe(t *testing.T) {
	queries := chaosQueries()
	if len(queries) < 16 {
		t.Fatalf("battery has %d queries, want >= 16", len(queries))
	}
	healthy := healthyBaseline(t, queries)
	base := buildRounds(t, chaosClusterConfig())
	// The same reads one at a time, past the scheduler (whose batching turns
	// the single-source queries into multi-source jobs with their own round
	// counts), on a healthy cluster.
	hc, err := NewCluster(chaosClusterConfig())
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	direct := coldWarmAnswers(t, hc, queries)
	if err := hc.Close(); err != nil {
		t.Fatalf("healthy cluster close: %v", err)
	}

	run := func(t *testing.T, cfg ClusterConfig) {
		cfg.WrapTransport = fatalAt(1, base+4)
		cl, s, views := runBattery(t, cfg, queries)
		defer func() {
			if err := cl.Close(); err != nil {
				t.Errorf("chaos cluster close: %v", err)
			}
		}()
		assertIdentical(t, views, healthy)
		// The degraded generation started with an empty plan cache on every
		// slot; each read answers the same on its cold and its warm plans.
		for i, cw := range coldWarmAnswers(t, cl, queries) {
			if !bytes.Equal(cw, direct[i]) {
				t.Fatalf("query %d: cold/warm plan on the degraded cluster answered %s, healthy %s", i, cw, direct[i])
			}
		}
		fo := cl.FailoverStats()
		if fo.Failovers < 1 || fo.HostsLost < 1 {
			t.Fatalf("fault did not trigger failover: %+v", fo)
		}
		if fo.SlotsPromoted < 1 {
			t.Fatalf("no slot promoted to a backup replica: %+v", fo)
		}
		if cl.AliveHosts() >= cfg.Ranks {
			t.Fatalf("no host lost: %d alive of %d", cl.AliveHosts(), cfg.Ranks)
		}
		if st := s.Stats(); st.Requeued < 1 {
			t.Fatalf("group death did not requeue the in-flight batch: %+v", st)
		} else if st.Failed != 0 || st.Expired != 0 {
			t.Fatalf("dropped queries: %d failed, %d expired", st.Failed, st.Expired)
		}
	}

	t.Run("inproc", func(t *testing.T) { run(t, chaosClusterConfig()) })
	t.Run("tcp", func(t *testing.T) {
		cfg := chaosClusterConfig()
		cfg.Transports = tcpFactory(t)
		run(t, cfg)
	})
}

// TestFailoverChaosScenarios sweeps seeded kill points across the serving
// timeline — the job-broadcast boundary, mid-BFS, and deep rounds where
// the traversal kernels are mid-halo-exchange — and across victims,
// asserting the byte-identity invariant for each.
func TestFailoverChaosScenarios(t *testing.T) {
	queries := chaosQueries()
	healthy := healthyBaseline(t, queries)
	base := buildRounds(t, chaosClusterConfig())

	// Fault ops fire at round entry, and the non-root slots enter the first
	// serving round (the job broadcast rendezvous) the instant they finish
	// building — so only slot 0, which enters it when a job arrives, can
	// model the boundary kill at delta 1. Deltas >= 2 imply a completed job
	// broadcast and are race-free on any victim.
	scenarios := []struct {
		name   string
		victim int
		delta  uint64
	}{
		{"rank0-at-job-broadcast", 0, 1},
		{"primary-mid-bfs", 1, 3},
		{"primary-mid-halo-exchange", 1, 9},
		{"backup-host-mid-serve", 3, 6},
		{"deep-into-workload", 2, 17},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			cfg := chaosClusterConfig()
			cfg.WrapTransport = fatalAt(sc.victim, base+sc.delta)
			cl, s, views := runBattery(t, cfg, queries)
			defer func() {
				if err := cl.Close(); err != nil {
					t.Errorf("chaos cluster close: %v", err)
				}
			}()
			assertIdentical(t, views, healthy)
			fo := cl.FailoverStats()
			if fo.Failovers < 1 || fo.HostsLost != 1 {
				t.Fatalf("scenario did not lose exactly one host: %+v", fo)
			}
			if st := s.Stats(); st.Failed != 0 || st.Expired != 0 {
				t.Fatalf("dropped queries: %d failed, %d expired", st.Failed, st.Expired)
			}
		})
	}
}

// TestFailoverKillTwoNonSiblings kills two hosts that share no shard
// (hosts 0 and 1 under the pinned 4-rank k=2 placement), through the Kill
// API, while the battery is in flight. Every shard keeps one live replica,
// so all queries must still complete byte-identical.
func TestFailoverKillTwoNonSiblings(t *testing.T) {
	queries := chaosQueries()
	healthy := healthyBaseline(t, queries)

	cl, err := NewCluster(chaosClusterConfig())
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer func() {
		if err := cl.Close(); err != nil {
			t.Errorf("chaos cluster close: %v", err)
		}
	}()
	s := NewScheduler(cl, chaosSchedConfig())
	deadline := time.Now().Add(2 * time.Minute)
	ids := make([]string, len(queries))
	for i, q := range queries {
		cp := *q
		id, err := s.Submit(&cp, deadline)
		if err != nil {
			t.Fatalf("submit query %d: %v", i, err)
		}
		ids[i] = id
	}
	s.Start()
	if err := cl.Kill(0); err != nil {
		t.Fatalf("Kill(0): %v", err)
	}
	// Wait for the first failover to land, then take the second host.
	for start := time.Now(); cl.Generation() < 1; {
		if time.Since(start) > 30*time.Second {
			t.Fatal("first failover never completed")
		}
		time.Sleep(time.Millisecond)
	}
	if err := cl.Kill(1); err != nil {
		t.Fatalf("Kill(1): %v", err)
	}
	views := make([]RequestView, len(ids))
	for i, id := range ids {
		views[i] = waitDone(t, s, id)
	}
	s.Close()
	assertIdentical(t, views, healthy)
	if got := cl.FailoverStats().HostsLost; got != 2 {
		t.Fatalf("hosts lost = %d, want 2", got)
	}
	if alive := cl.AliveHosts(); alive != 2 {
		t.Fatalf("alive hosts = %d, want 2", alive)
	}
	if !cl.Alive() {
		t.Fatal("cluster died with a live replica of every shard")
	}
}

// TestFailoverShardLostFailsClean kills two sibling hosts (0 and 2 share
// shards 0 and 2), destroying every replica of those shards mid-serve.
// The invariant flips from "all complete" to "never silently wrong": each
// query either completes byte-identical or fails with the typed shard-lost
// error.
func TestFailoverShardLostFailsClean(t *testing.T) {
	queries := chaosQueries()
	healthy := healthyBaseline(t, queries)

	cl, err := NewCluster(chaosClusterConfig())
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cl.Close() // terminal error expected; surfaced via views below
	s := NewScheduler(cl, chaosSchedConfig())
	deadline := time.Now().Add(2 * time.Minute)
	ids := make([]string, len(queries))
	for i, q := range queries {
		cp := *q
		id, err := s.Submit(&cp, deadline)
		if err != nil {
			t.Fatalf("submit query %d: %v", i, err)
		}
		ids[i] = id
	}
	s.Start()
	if err := cl.Kill(0); err != nil {
		t.Fatalf("Kill(0): %v", err)
	}
	if err := cl.Kill(2); err != nil {
		t.Fatalf("Kill(2): %v", err)
	}
	done, failed := 0, 0
	for i, id := range ids {
		v := waitDone(t, s, id)
		switch v.State {
		case StateDone:
			done++
			if got := v.Result.Canonical(); !bytes.Equal(got, healthy[i]) {
				t.Fatalf("query %d: wrong answer from dying cluster:\n  got:  %s\n  want: %s", i, got, healthy[i])
			}
		case StateFailed:
			failed++
			if v.ErrKind != "shard-lost" && v.ErrKind != "cluster-down" {
				t.Fatalf("query %d failed with kind %q (err %q), want a typed shard-lost/cluster-down failure", i, v.ErrKind, v.Err)
			}
		default:
			t.Fatalf("query %d: state %s, want done or failed", i, v.State)
		}
	}
	// The cluster must have terminated on the shard loss; late queries get
	// the typed terminal error, not a hang or a wrong answer.
	if cl.Alive() {
		t.Fatal("cluster survived losing every replica of a shard")
	}
	cp := *queries[0]
	id, err := s.Submit(&cp, time.Now().Add(time.Minute))
	if err != nil {
		t.Fatalf("post-mortem submit: %v", err)
	}
	if v := waitDone(t, s, id); v.State != StateFailed || v.ErrKind != "shard-lost" {
		t.Fatalf("post-mortem query: state %s kind %q, want failed/shard-lost", v.State, v.ErrKind)
	}
	s.Close()
	t.Logf("shard-lost battery: %d completed identically, %d failed clean", done, failed+1)
}
