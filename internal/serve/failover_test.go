package serve

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/partition"
)

// twoRankConfig is the small replicated cluster the targeted failover
// tests use: 2 slots, 2 replicas, so killing either host leaves the
// survivor serving both slots.
func twoRankConfig() ClusterConfig {
	return ClusterConfig{
		Ranks:     2,
		Threads:   1,
		Source:    core.SpecSource{Spec: testSpec},
		Partition: partition.Random,
		Seed:      7,
		Epoch:     1,
		Replicas:  2,
	}
}

// TestSchedulerRequeueSemantics pins the requeue contract: a job whose
// SPMD run dies with the compute group is requeued — not failed — and
// runs exactly once more on the re-formed group; a duplicate submitted
// behind it is answered by the dispatch-time cache dedupe instead of a
// second run. Nothing runs twice, nothing reports failed.
func TestSchedulerRequeueSemantics(t *testing.T) {
	mk := func(j analytics.Job) *analytics.Job {
		cp := j
		cp.Normalize()
		return &cp
	}
	queries := []*analytics.Job{
		mk(analytics.Job{Analytic: analytics.JobPageRank}),
		mk(analytics.Job{Analytic: analytics.JobWCC}),
		mk(analytics.Job{Analytic: analytics.JobPageRank}), // dedupe target
	}
	healthy := healthyViews(t, twoRankConfig(), queries)
	base := buildRounds(t, twoRankConfig())

	cfg := twoRankConfig()
	// Round base+1 is the job broadcast; base+2 is the first collective of
	// the PageRank run — the fault kills host 1 mid-kernel.
	cfg.WrapTransport = fatalAt(1, base+2)
	cl, s, views := runBattery(t, cfg, queries)
	defer func() {
		if err := cl.Close(); err != nil {
			t.Errorf("cluster close: %v", err)
		}
	}()

	for i, v := range views {
		if v.State != StateDone {
			t.Fatalf("query %d: state %s (err %q), want done", i, v.State, v.Err)
		}
		if got, want := v.Result.Canonical(), healthy[i].Result.Canonical(); !bytes.Equal(got, want) {
			t.Fatalf("query %d diverged after requeue:\n  got:  %s\n  want: %s", i, got, want)
		}
	}
	if views[0].Requeues < 1 {
		t.Fatalf("killed job reports %d requeues, want >= 1", views[0].Requeues)
	}
	st := s.Stats()
	if st.Failed != 0 {
		t.Fatalf("%d jobs failed; requeueable group death must not fail jobs", st.Failed)
	}
	if st.Requeued < 1 {
		t.Fatalf("stats requeued = %d, want >= 1", st.Requeued)
	}
	if st.DedupeHits != 1 {
		t.Fatalf("stats dedupe hits = %d, want exactly 1 (the duplicate pagerank)", st.DedupeHits)
	}
	// The duplicate never ran: pagerank (after requeue) + wcc only.
	if got := cl.JobsRun(); got != 2 {
		t.Fatalf("cluster ran %d jobs, want 2 (requeued pagerank once, wcc once, duplicate deduped)", got)
	}
	if cl.Generation() != 1 {
		t.Fatalf("generation = %d, want 1 (exactly one failover)", cl.Generation())
	}
	if fo := cl.FailoverStats(); fo.JobsRequeued < 1 {
		t.Fatalf("failover counters missed the requeue: %+v", fo)
	}
}

// healthyViews runs the workload on a fault-free cluster and returns the
// terminal views by submission index.
func healthyViews(t *testing.T, cfg ClusterConfig, queries []*analytics.Job) []RequestView {
	t.Helper()
	cl, _, views := runBattery(t, cfg, queries)
	defer func() {
		if err := cl.Close(); err != nil {
			t.Errorf("healthy cluster close: %v", err)
		}
	}()
	for i, v := range views {
		if v.State != StateDone {
			t.Fatalf("healthy run: query %d state %s (err %q)", i, v.State, v.Err)
		}
	}
	return views
}

// TestDownErrSurfacesCommErrorKind pins the diagnosis chain on an
// unreplicated cluster: after an injected fatal kills a host, Run's
// terminal error carries the cluster-down sentinel, the shard-lost
// verdict, AND the originating rank's CommError kind — not the generic
// down error and not a bystander's abort.
func TestDownErrSurfacesCommErrorKind(t *testing.T) {
	cfg := twoRankConfig()
	cfg.Replicas = 1
	base := buildRounds(t, cfg)
	cfg.WrapTransport = fatalAt(1, base+2)
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cl.Close() // terminal error expected; asserted via downErr below

	job := &analytics.Job{Analytic: analytics.JobPageRank}
	job.Normalize()
	if _, _, err := cl.Run(job); err == nil {
		t.Fatal("job survived a fatal fault on an unreplicated cluster")
	}
	for start := time.Now(); cl.Alive(); {
		if time.Since(start) > 30*time.Second {
			t.Fatal("cluster never terminated after losing its only replica of shard 1")
		}
		time.Sleep(time.Millisecond)
	}

	_, _, err = cl.Run(job)
	if err == nil {
		t.Fatal("Run succeeded on a dead cluster")
	}
	if !errors.Is(err, ErrClusterDown) {
		t.Fatalf("terminal error lacks ErrClusterDown: %v", err)
	}
	if !errors.Is(err, ErrShardLost) {
		t.Fatalf("terminal error lacks ErrShardLost: %v", err)
	}
	var ce *comm.CommError
	if !errors.As(err, &ce) {
		t.Fatalf("terminal error carries no CommError: %v", err)
	}
	if ce.Kind != comm.KindFatal {
		t.Fatalf("surfaced CommError kind = %s, want %s (the originating injected fatal, not a bystander abort)", ce.Kind, comm.KindFatal)
	}
}

// TestKillValidationAndFullDegradation covers the Kill seam's argument
// checking and the deepest degraded mode: a 2-slot group served entirely
// by one surviving host, which must still answer correctly with its
// thread budget split across both slots.
func TestKillValidationAndFullDegradation(t *testing.T) {
	queries := []*analytics.Job{
		func() *analytics.Job { j := &analytics.Job{Analytic: analytics.JobPageRank}; j.Normalize(); return j }(),
	}
	healthy := healthyViews(t, twoRankConfig(), queries)

	cl, err := NewCluster(twoRankConfig())
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer func() {
		if err := cl.Close(); err != nil {
			t.Errorf("cluster close: %v", err)
		}
	}()
	if err := cl.Kill(-1); err == nil {
		t.Fatal("Kill(-1) accepted")
	}
	if err := cl.Kill(2); err == nil {
		t.Fatal("Kill(2) accepted on a 2-host cluster")
	}
	if err := cl.Kill(1); err != nil {
		t.Fatalf("Kill(1): %v", err)
	}
	for start := time.Now(); cl.Generation() < 1; {
		if time.Since(start) > 30*time.Second {
			t.Fatal("failover never completed")
		}
		time.Sleep(time.Millisecond)
	}
	if err := cl.Kill(1); err == nil {
		t.Fatal("double Kill(1) accepted after the host was removed")
	}
	if alive := cl.AliveHosts(); alive != 1 {
		t.Fatalf("alive hosts = %d, want 1", alive)
	}

	// Host 0 now serves both slots. The cluster must still answer, and
	// byte-identically.
	job := *queries[0]
	res, _, err := cl.Run(&job)
	if err != nil {
		t.Fatalf("job on fully degraded cluster: %v", err)
	}
	if got, want := res.Canonical(), healthy[0].Result.Canonical(); !bytes.Equal(got, want) {
		t.Fatalf("fully degraded answer diverged:\n  got:  %s\n  want: %s", got, want)
	}
	if !cl.Alive() {
		t.Fatal("cluster died while one host still holds every shard")
	}
}

// TestDeadClusterSubmitSkipsCache pins what a dead cluster answers: a query
// whose result sits in the cache still fails with the cluster's terminal
// error kind, because admission checks liveness before it probes the cache.
func TestDeadClusterSubmitSkipsCache(t *testing.T) {
	cfg := twoRankConfig()
	cfg.Replicas = 1
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cl.Close() // terminal error expected; surfaced via the view below
	s := NewScheduler(cl, chaosSchedConfig())
	defer s.Close()
	s.Start()
	submit := func() RequestView {
		t.Helper()
		id, err := s.Submit(bfsJob(3), time.Now().Add(time.Minute))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		return waitDone(t, s, id)
	}
	if v := submit(); v.State != StateDone {
		t.Fatalf("first query: state %s (err %q), want done", v.State, v.Err)
	}
	if v := submit(); !v.Cached {
		t.Fatal("repeat query on the live cluster missed the cache")
	}
	if err := cl.Kill(1); err != nil {
		t.Fatalf("Kill(1): %v", err)
	}
	for start := time.Now(); cl.Alive(); {
		if time.Since(start) > 30*time.Second {
			t.Fatal("cluster never terminated after losing its only replica of shard 1")
		}
		time.Sleep(time.Millisecond)
	}
	if v := submit(); v.State != StateFailed || v.ErrKind != "shard-lost" || v.Cached {
		t.Fatalf("query on the dead cluster: state %s kind %q cached %v, want failed/shard-lost", v.State, v.ErrKind, v.Cached)
	}
}

// waitGoroutines polls until at most want goroutines are running and fails
// with every goroutine's stack if that does not happen within 10 s.
func waitGoroutines(t *testing.T, want int, when string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%s: %d goroutines, want <= %d\n%s", when, n, want, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// steadyGoroutines returns the goroutine count once it has read the same
// for 50 ms: an idle TCP rank parks with a frame reader running, and that
// reader starts a moment after the rank's previous job returns.
func steadyGoroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for same < 10 {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// TestGoroutinesReturnToBaseline: turning over a generation leaves no more
// goroutines running than the first generation had, and Close leaves no
// more than before NewCluster. Rank loops parked or spinning in a
// collective, transport helpers and kill nudges all have to exit.
func TestGoroutinesReturnToBaseline(t *testing.T) {
	run := func(t *testing.T, cfg ClusterConfig) {
		base := runtime.NumGoroutine()
		cl, err := NewCluster(cfg)
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		query := func() {
			t.Helper()
			if _, _, err := cl.Run(bfsJob(3)); err != nil {
				t.Fatalf("query: %v", err)
			}
		}
		query()
		serving := steadyGoroutines()
		if err := cl.Kill(1); err != nil {
			t.Fatalf("Kill(1): %v", err)
		}
		for start := time.Now(); cl.Generation() < 1; {
			if time.Since(start) > 30*time.Second {
				t.Fatal("failover never completed")
			}
			time.Sleep(time.Millisecond)
		}
		query()
		waitGoroutines(t, serving, "after failover to generation 1")
		if err := cl.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		waitGoroutines(t, base, "after Close")
	}
	t.Run("inproc", func(t *testing.T) { run(t, twoRankConfig()) })
	t.Run("tcp", func(t *testing.T) {
		cfg := twoRankConfig()
		cfg.Transports = tcpFactory(t)
		run(t, cfg)
	})
}
