package serve

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/partition"
)

// testSpec is the small synthetic graph the serve tests share.
var testSpec = gen.Spec{Kind: gen.RMAT, NumVertices: 1 << 9, NumEdges: 1 << 12, Seed: 11}

// newTestCluster spins up a resident rank group over the shared test graph
// and tears it down with the test.
func newTestCluster(t *testing.T, ranks int, trace *obs.TraceSet) *Cluster {
	t.Helper()
	cl, err := NewCluster(ClusterConfig{
		Ranks:     ranks,
		Threads:   2,
		Source:    core.SpecSource{Spec: testSpec},
		Partition: partition.Random,
		Seed:      7,
		Trace:     trace,
		Epoch:     1,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(func() {
		if err := cl.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return cl
}

func bfsJob(sources ...uint32) *analytics.Job {
	j := &analytics.Job{Analytic: analytics.JobBFS, Sources: sources}
	j.Normalize()
	return j
}

// TestClusterIdenticalJobsIdenticalStats pins the ResetStats contract: two
// identical jobs on the resident cluster report, in steady state, identical
// Sent-MiB and identical per-collective counters, because each job's
// measurement window starts from zero (comm stats AND obs metrics both
// reset). Steady state means warm kernel plans: the first job to need a
// halo after boot, failover or a mutation also ships its one-time gid
// exchange.
func TestClusterIdenticalJobsIdenticalStats(t *testing.T) {
	cl := newTestCluster(t, 3, nil)

	// A throwaway first job so the pinned pair doesn't also absorb any
	// build-time leftovers (it must not, but the pair proves steady state);
	// WCC also leaves the halo plan a BFS may ask for warm.
	if _, _, err := cl.Run(&analytics.Job{Analytic: analytics.JobWCC}); err != nil {
		t.Fatalf("warmup job: %v", err)
	}

	res1, st1, err := cl.Run(bfsJob(3))
	if err != nil {
		t.Fatalf("job 1: %v", err)
	}
	res2, st2, err := cl.Run(bfsJob(3))
	if err != nil {
		t.Fatalf("job 2: %v", err)
	}

	if st1.SentBytes == 0 {
		t.Fatalf("job reported zero group-wide sent bytes")
	}
	if st1.SentBytes != st2.SentBytes {
		t.Fatalf("identical jobs, different Sent-MiB: %d vs %d bytes", st1.SentBytes, st2.SentBytes)
	}
	if st1.Rank0.BytesSent != st2.Rank0.BytesSent {
		t.Fatalf("identical jobs, different rank-0 bytes: %d vs %d", st1.Rank0.BytesSent, st2.Rank0.BytesSent)
	}
	for k := obs.Collective(0); k < obs.NumCollectives; k++ {
		a, b := st1.Collectives[k], st2.Collectives[k]
		if a.Calls != b.Calls || a.WireBytesOut != b.WireBytesOut || a.WireBytesIn != b.WireBytesIn {
			t.Fatalf("collective %v differs between identical jobs: %+v vs %+v", k, a, b)
		}
	}
	if res1.Sources[0] != res2.Sources[0] {
		t.Fatalf("identical jobs, different answers: %+v vs %+v", res1.Sources[0], res2.Sources[0])
	}
}

// TestClusterRejectsInvalidJobWithoutDying checks the rank-side admission
// branch: an invalid job errors back but leaves the resident group serving.
func TestClusterRejectsInvalidJobWithoutDying(t *testing.T) {
	cl := newTestCluster(t, 2, nil)
	bad := &analytics.Job{Analytic: analytics.JobBFS, Sources: []uint32{testSpec.NumVertices + 5}}
	if _, _, err := cl.Run(bad); err == nil {
		t.Fatalf("out-of-range source accepted")
	}
	if !cl.Alive() {
		t.Fatalf("cluster died on invalid job")
	}
	if _, _, err := cl.Run(bfsJob(0)); err != nil {
		t.Fatalf("valid job after invalid one: %v", err)
	}
}

// waitDone waits for a submitted request to reach a terminal state.
func waitDone(t *testing.T, s *Scheduler, id string) RequestView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	v, ok := s.Wait(ctx, id)
	if !ok {
		t.Fatalf("job %s vanished", id)
	}
	if !v.State.Terminal() {
		t.Fatalf("job %s not terminal: %s", id, v.State)
	}
	return v
}

// TestSchedulerBatchesSingleSourceQueries pre-queues four batchable BFS
// queries on a paused scheduler, starts it, and asserts they ran as ONE
// multi-source SPMD job — observable from the request views, the scheduler
// counters, the cluster job count, and the SpanServeJob trace arg — with
// each member's answer identical to its solo run.
func TestSchedulerBatchesSingleSourceQueries(t *testing.T) {
	cl := newTestCluster(t, 2, nil)
	tr := obs.NewTracer(0, 64, time.Now())
	s := NewScheduler(cl, SchedConfig{QueueCap: 16, BatchMax: 8, CacheCap: 0, Tracer: tr})
	defer s.Close()

	sources := []uint32{5, 9, 42, 5} // duplicate source must batch too
	ids := make([]string, len(sources))
	for i, src := range sources {
		id, err := s.Submit(bfsJob(src), time.Now().Add(30*time.Second))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = id
	}
	s.Start()

	solo := make(map[uint32]analytics.SourceSummary)
	for i, id := range ids {
		v := waitDone(t, s, id)
		if v.State != StateDone {
			t.Fatalf("query %d: state %s err %q", i, v.State, v.Err)
		}
		if v.Batch != len(sources) {
			t.Fatalf("query %d: batch %d, want %d", i, v.Batch, len(sources))
		}
		if len(v.Result.Sources) != 1 || v.Result.Sources[0].Source != sources[i] {
			t.Fatalf("query %d: projected result %+v", i, v.Result)
		}
		solo[sources[i]] = v.Result.Sources[0]
	}
	if got := cl.JobsRun(); got != 1 {
		t.Fatalf("4 coalesced queries ran %d SPMD jobs, want 1", got)
	}
	st := s.Stats()
	if st.Batches != 1 || st.Coalesced != 3 || st.MaxBatch != 4 {
		t.Fatalf("batch counters: %+v", st)
	}

	// The dispatcher's span carries the batch size as its arg.
	var spanned bool
	for _, e := range tr.Events() {
		if e.Name == SpanServeJob {
			spanned = true
			if e.Arg != int64(len(sources)) {
				t.Fatalf("%s arg = %d, want %d", SpanServeJob, e.Arg, len(sources))
			}
		}
	}
	if !spanned {
		t.Fatalf("no %s span emitted", SpanServeJob)
	}

	// Batched answers must equal solo answers.
	for src, got := range solo {
		res, _, err := cl.Run(bfsJob(src))
		if err != nil {
			t.Fatalf("solo bfs %d: %v", src, err)
		}
		if res.Sources[0] != got {
			t.Fatalf("source %d: batched %+v, solo %+v", src, got, res.Sources[0])
		}
	}
}

// TestSchedulerMixedQueueDoesNotOverBatch checks that only compatible
// requests coalesce: a PageRank between two BFS queries stays its own job.
func TestSchedulerMixedQueueDoesNotOverBatch(t *testing.T) {
	cl := newTestCluster(t, 2, nil)
	s := NewScheduler(cl, SchedConfig{QueueCap: 16, BatchMax: 8, CacheCap: 0})
	defer s.Close()

	deadline := time.Now().Add(30 * time.Second)
	id1, err1 := s.Submit(bfsJob(1), deadline)
	id2, err2 := s.Submit(&analytics.Job{Analytic: analytics.JobPageRank, Iterations: 3, Damping: 0.85}, deadline)
	id3, err3 := s.Submit(bfsJob(2), deadline)
	if err1 != nil || err2 != nil || err3 != nil {
		t.Fatalf("submits: %v %v %v", err1, err2, err3)
	}
	s.Start()

	v1, v2, v3 := waitDone(t, s, id1), waitDone(t, s, id2), waitDone(t, s, id3)
	if v1.State != StateDone || v2.State != StateDone || v3.State != StateDone {
		t.Fatalf("states: %s %s %s", v1.State, v2.State, v3.State)
	}
	if v1.Batch != 2 || v3.Batch != 2 {
		t.Fatalf("bfs queries batch = %d, %d; want 2, 2", v1.Batch, v3.Batch)
	}
	if v2.Batch != 1 {
		t.Fatalf("pagerank batched with bfs: batch = %d", v2.Batch)
	}
	if got := cl.JobsRun(); got != 2 {
		t.Fatalf("ran %d SPMD jobs, want 2 (bfs pair + pagerank)", got)
	}
}

// TestSchedulerCacheHitSkipsCluster asserts a repeated query is answered
// from the result cache without a new SPMD job.
func TestSchedulerCacheHitSkipsCluster(t *testing.T) {
	cl := newTestCluster(t, 2, nil)
	s := NewScheduler(cl, SchedConfig{QueueCap: 16, BatchMax: 1, CacheCap: 32})
	defer s.Close()
	s.Start()

	deadline := time.Now().Add(30 * time.Second)
	id1, err := s.Submit(bfsJob(7), deadline)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	v1 := waitDone(t, s, id1)
	if v1.State != StateDone || v1.Cached {
		t.Fatalf("first query: state %s cached %v", v1.State, v1.Cached)
	}
	jobs := cl.JobsRun()

	id2, err := s.Submit(bfsJob(7), deadline)
	if err != nil {
		t.Fatalf("repeat submit: %v", err)
	}
	v2 := waitDone(t, s, id2)
	if v2.State != StateDone || !v2.Cached {
		t.Fatalf("repeat query: state %s cached %v", v2.State, v2.Cached)
	}
	if cl.JobsRun() != jobs {
		t.Fatalf("cache hit ran a new SPMD job (%d -> %d)", jobs, cl.JobsRun())
	}
	if v2.Result.Sources[0] != v1.Result.Sources[0] {
		t.Fatalf("cached answer differs: %+v vs %+v", v2.Result.Sources[0], v1.Result.Sources[0])
	}

	// A different parameterization must miss.
	id3, err := s.Submit(&analytics.Job{Analytic: analytics.JobBFS, Sources: []uint32{7}, Dir: "und"}, deadline)
	if err != nil {
		t.Fatalf("variant submit: %v", err)
	}
	if v3 := waitDone(t, s, id3); v3.Cached {
		t.Fatalf("different dir answered from cache")
	}
	st := s.Stats()
	if st.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", st.CacheHits)
	}
}

// TestSchedulerAdmissionControl covers the typed rejections: 429 beyond the
// queue bound, 400 on invalid jobs, 503 after Close.
func TestSchedulerAdmissionControl(t *testing.T) {
	cl := newTestCluster(t, 2, nil)
	s := NewScheduler(cl, SchedConfig{QueueCap: 2, BatchMax: 1, CacheCap: 0})
	// Paused scheduler: the queue fills deterministically.
	deadline := time.Now().Add(30 * time.Second)
	if _, err := s.Submit(bfsJob(1), deadline); err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	if _, err := s.Submit(bfsJob(2), deadline); err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	if _, err := s.Submit(bfsJob(3), deadline); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-cap submit: %v, want ErrQueueFull", err)
	}
	if _, err := s.Submit(&analytics.Job{Analytic: "mincut"}, deadline); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown analytic: %v, want ErrBadRequest", err)
	}

	s.Close() // fails the two queued requests with ErrShuttingDown
	if _, err := s.Submit(bfsJob(4), deadline); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-close submit: %v, want ErrShuttingDown", err)
	}
	st := s.Stats()
	if st.Rejected429 != 1 || st.Rejected503 != 1 || st.Failed != 2 {
		t.Fatalf("rejection counters: %+v", st)
	}
}

// ssspJob builds a normalized single-source SSSP descriptor with hash
// weights and the given Δ-stepping bucket width.
func ssspJob(src uint32, delta uint64) *analytics.Job {
	j := &analytics.Job{
		Analytic: analytics.JobSSSP, Sources: []uint32{src},
		MaxWeight: 8, WeightSeed: 5, Delta: delta,
	}
	j.Normalize()
	return j
}

// TestClusterRunsBucketAnalytics exercises the bucket-structure analytics
// through the resident-cluster job path: exact k-core and weighted PageRank
// dispatch like any other job, and SSSP answers are Δ-invariant end to end.
func TestClusterRunsBucketAnalytics(t *testing.T) {
	cl := newTestCluster(t, 3, nil)

	kc := &analytics.Job{Analytic: analytics.JobKCore}
	kc.Normalize()
	kres, _, err := cl.Run(kc)
	if err != nil {
		t.Fatalf("kcore job: %v", err)
	}
	if kres.MaxCoreness == 0 || kres.Rounds == 0 {
		t.Fatalf("kcore job result: %+v", kres)
	}

	wp := &analytics.Job{Analytic: analytics.JobPageRankWeighted, MaxWeight: 8, WeightSeed: 5}
	wp.Normalize()
	wres, _, err := cl.Run(wp)
	if err != nil {
		t.Fatalf("wpagerank job: %v", err)
	}
	if wres.MaxScore <= 0 || wres.Iterations == 0 {
		t.Fatalf("wpagerank job result: %+v", wres)
	}
	// Weighted PageRank with unit weights is plain PageRank; different hash
	// weights must move the scores, so the kind is genuinely weighted.
	pp := &analytics.Job{Analytic: analytics.JobPageRank}
	pp.Normalize()
	pres, _, err := cl.Run(pp)
	if err != nil {
		t.Fatalf("pagerank job: %v", err)
	}
	if wres.MaxScore == pres.MaxScore {
		t.Fatalf("weighted and unweighted PageRank share MaxScore %g", wres.MaxScore)
	}
	// At max_weight 0 the weighted kind takes the unit path: plain PageRank.
	up := &analytics.Job{Analytic: analytics.JobPageRankWeighted}
	up.Normalize()
	ures, _, err := cl.Run(up)
	if err != nil {
		t.Fatalf("wpagerank max_weight 0 job: %v", err)
	}
	if ures.MaxScore != pres.MaxScore || ures.Iterations != pres.Iterations {
		t.Fatalf("wpagerank at max_weight 0 = (%g, %d iterations), pagerank = (%g, %d)",
			ures.MaxScore, ures.Iterations, pres.MaxScore, pres.Iterations)
	}

	// Δ changes schedule only: the per-source answers are identical.
	r1, _, err := cl.Run(ssspJob(3, 1))
	if err != nil {
		t.Fatalf("sssp delta=1: %v", err)
	}
	r2, _, err := cl.Run(ssspJob(3, 1<<40))
	if err != nil {
		t.Fatalf("sssp delta=huge: %v", err)
	}
	if r1.Sources[0] != r2.Sources[0] {
		t.Fatalf("SSSP answer depends on delta: %+v vs %+v", r1.Sources[0], r2.Sources[0])
	}
}

// TestSchedulerDeltaSharesCacheEntry pins the cacheKey exemption: two SSSP
// queries differing only in the Δ bucket width produce byte-identical
// answers, so the second is a cache hit and runs no SPMD job.
func TestSchedulerDeltaSharesCacheEntry(t *testing.T) {
	cl := newTestCluster(t, 2, nil)
	s := NewScheduler(cl, SchedConfig{QueueCap: 16, BatchMax: 1, CacheCap: 32})
	defer s.Close()
	s.Start()

	deadline := time.Now().Add(30 * time.Second)
	id1, err := s.Submit(ssspJob(7, 1), deadline)
	if err != nil {
		t.Fatalf("submit delta=1: %v", err)
	}
	v1 := waitDone(t, s, id1)
	if v1.State != StateDone || v1.Cached {
		t.Fatalf("first query: state %s cached %v", v1.State, v1.Cached)
	}
	jobs := cl.JobsRun()

	id2, err := s.Submit(ssspJob(7, 1000), deadline)
	if err != nil {
		t.Fatalf("submit delta=1000: %v", err)
	}
	v2 := waitDone(t, s, id2)
	if v2.State != StateDone || !v2.Cached {
		t.Fatalf("cross-delta repeat: state %s cached %v", v2.State, v2.Cached)
	}
	if cl.JobsRun() != jobs {
		t.Fatalf("cross-delta cache hit ran a new SPMD job (%d -> %d)", jobs, cl.JobsRun())
	}
	if v2.Result.Sources[0] != v1.Result.Sources[0] {
		t.Fatalf("cached answer differs: %+v vs %+v", v2.Result.Sources[0], v1.Result.Sources[0])
	}

	// A different weighting must still miss: only schedule knobs are exempt.
	j3 := ssspJob(7, 1)
	j3.WeightSeed = 6
	id3, err := s.Submit(j3, deadline)
	if err != nil {
		t.Fatalf("variant submit: %v", err)
	}
	if v3 := waitDone(t, s, id3); v3.Cached {
		t.Fatalf("different weight seed answered from cache")
	}
}

// TestSchedulerUnreadFieldsShare pins that a field a kind does not read
// changes neither its cache key nor its batch: Normalize zeroes it, so
// such variants share one cache entry and coalesce into one job.
func TestSchedulerUnreadFieldsShare(t *testing.T) {
	cl := newTestCluster(t, 2, nil)
	deadline := time.Now().Add(30 * time.Second)
	submit := func(s *Scheduler, j analytics.Job) string {
		t.Helper()
		id, err := s.Submit(&j, deadline)
		if err != nil {
			t.Fatalf("submit %+v: %v", j, err)
		}
		return id
	}

	// Batching: three bfs queries differing only in fields bfs ignores,
	// and two sssp queries differing only in a traversal policy.
	b := NewScheduler(cl, SchedConfig{QueueCap: 16, BatchMax: 8, CacheCap: 0})
	defer b.Close()
	ids := []string{
		submit(b, analytics.Job{Analytic: analytics.JobBFS, Sources: []uint32{5}}),
		submit(b, analytics.Job{Analytic: analytics.JobBFS, Sources: []uint32{9}, Iterations: 7}),
		submit(b, analytics.Job{Analytic: analytics.JobBFS, Sources: []uint32{42}, MaxWeight: 8, Tolerance: 0.1}),
		submit(b, analytics.Job{Analytic: analytics.JobSSSP, Sources: []uint32{3}, MaxWeight: 8}),
		submit(b, analytics.Job{Analytic: analytics.JobSSSP, Sources: []uint32{4}, MaxWeight: 8, Hybrid: "push"}),
	}
	b.Start()
	for _, id := range ids {
		if v := waitDone(t, b, id); v.State != StateDone {
			t.Fatalf("query %s: state %s err %q", id, v.State, v.Err)
		}
	}
	if st := b.Stats(); st.Batches != 2 || st.Coalesced != 3 {
		t.Fatalf("unread-field variants did not coalesce: %+v", st)
	}

	// Caching: each variant repeats a cached answer.
	c := NewScheduler(cl, SchedConfig{QueueCap: 16, BatchMax: 1, CacheCap: 32})
	defer c.Close()
	c.Start()
	for _, pair := range [][2]analytics.Job{
		{{Analytic: analytics.JobPageRank}, {Analytic: analytics.JobPageRank, Sources: []uint32{3}, Dir: "in"}},
		{{Analytic: analytics.JobBFS, Sources: []uint32{5}}, {Analytic: analytics.JobBFS, Sources: []uint32{5}, Iterations: 3, WeightSeed: 2}},
		{{Analytic: analytics.JobSSSP, Sources: []uint32{3}, MaxWeight: 8}, {Analytic: analytics.JobSSSP, Sources: []uint32{3}, MaxWeight: 8, Hybrid: "dense", RandomTies: true}},
	} {
		first := waitDone(t, c, submit(c, pair[0]))
		again := waitDone(t, c, submit(c, pair[1]))
		if first.State != StateDone || again.State != StateDone || !again.Cached {
			t.Fatalf("%s variant: states %s/%s, cached %v", pair[0].Analytic, first.State, again.State, again.Cached)
		}
		if !bytes.Equal(first.Result.Canonical(), again.Result.Canonical()) {
			t.Fatalf("%s variant answer %s, want %s", pair[0].Analytic, again.Result.Canonical(), first.Result.Canonical())
		}
	}
	if st := c.Stats(); st.CacheHits != 3 {
		t.Fatalf("cache hits %d, want 3: %+v", st.CacheHits, st)
	}
}

// TestSchedulerDeltaDoesNotBatch checks the batch-compatibility rule: two
// single-source SSSP queries with different Δ widths stay separate jobs (a
// batch runs under one bucket width), while equal widths still coalesce.
func TestSchedulerDeltaDoesNotBatch(t *testing.T) {
	cl := newTestCluster(t, 2, nil)
	s := NewScheduler(cl, SchedConfig{QueueCap: 16, BatchMax: 8, CacheCap: 0})
	defer s.Close()

	deadline := time.Now().Add(30 * time.Second)
	id1, err1 := s.Submit(ssspJob(1, 1), deadline)
	id2, err2 := s.Submit(ssspJob(2, 64), deadline)
	id3, err3 := s.Submit(ssspJob(3, 1), deadline)
	if err1 != nil || err2 != nil || err3 != nil {
		t.Fatalf("submits: %v %v %v", err1, err2, err3)
	}
	s.Start()

	v1, v2, v3 := waitDone(t, s, id1), waitDone(t, s, id2), waitDone(t, s, id3)
	if v1.State != StateDone || v2.State != StateDone || v3.State != StateDone {
		t.Fatalf("states: %s %s %s", v1.State, v2.State, v3.State)
	}
	if v1.Batch != 2 || v3.Batch != 2 {
		t.Fatalf("equal-delta queries batch = %d, %d; want 2, 2", v1.Batch, v3.Batch)
	}
	if v2.Batch != 1 {
		t.Fatalf("different delta batched: batch = %d", v2.Batch)
	}
	if got := cl.JobsRun(); got != 2 {
		t.Fatalf("ran %d SPMD jobs, want 2 (delta=1 pair + delta=64)", got)
	}
}

// TestSchedulerDeadlineExpiresBeforeDispatch checks an already-expired
// queued request is failed as expired without consuming cluster time.
func TestSchedulerDeadlineExpiresBeforeDispatch(t *testing.T) {
	cl := newTestCluster(t, 2, nil)
	s := NewScheduler(cl, SchedConfig{QueueCap: 16, BatchMax: 1, CacheCap: 0})
	defer s.Close()

	expired, err := s.Submit(bfsJob(1), time.Now().Add(-time.Millisecond))
	if err != nil {
		t.Fatalf("submit expired: %v", err)
	}
	live, err := s.Submit(bfsJob(2), time.Now().Add(30*time.Second))
	if err != nil {
		t.Fatalf("submit live: %v", err)
	}
	s.Start()

	if v := waitDone(t, s, expired); v.State != StateExpired {
		t.Fatalf("expired request: state %s err %q", v.State, v.Err)
	}
	if v := waitDone(t, s, live); v.State != StateDone {
		t.Fatalf("live request: state %s err %q", v.State, v.Err)
	}
	if got := cl.JobsRun(); got != 1 {
		t.Fatalf("expired request consumed cluster time: %d jobs", got)
	}
	if st := s.Stats(); st.Expired != 1 {
		t.Fatalf("expired counter = %d", st.Expired)
	}
}

// TestSchedulerBatchMembersGetSoloBytes runs coalesced BFS, SSSP and
// Harmonic batches through the scheduler on both transports and checks the
// answer each member receives is byte for byte its solo job's — Rounds
// included, which a coalesced SSSP member used to inherit from the batch.
// One thread per rank.
func TestSchedulerBatchMembersGetSoloBytes(t *testing.T) {
	kinds := []analytics.Job{
		{Analytic: analytics.JobBFS, Dir: "und"},
		{Analytic: analytics.JobSSSP, MaxWeight: 8, WeightSeed: 5},
		{Analytic: analytics.JobSSSP, MaxWeight: 8, WeightSeed: 5, Delta: 3},
		{Analytic: analytics.JobHarmonic},
	}
	sources := []uint32{5, 9, 42}
	for _, tc := range []struct {
		name       string
		transports func(*testing.T) TransportFactory
	}{
		{"inproc", func(*testing.T) TransportFactory { return nil }},
		{"tcp", tcpFactory},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := NewCluster(ClusterConfig{
				Ranks: 2, Threads: 1, Source: core.SpecSource{Spec: testSpec},
				Partition: partition.Random, Seed: 7, Epoch: 1, Transports: tc.transports(t),
			})
			if err != nil {
				t.Fatalf("NewCluster: %v", err)
			}
			defer cl.Close()
			for _, kind := range kinds {
				s := NewScheduler(cl, SchedConfig{QueueCap: 16, BatchMax: 8, CacheCap: 0})
				ids := make([]string, len(sources))
				for i, src := range sources {
					job := kind
					job.Sources = []uint32{src}
					if ids[i], err = s.Submit(&job, time.Now().Add(30*time.Second)); err != nil {
						t.Fatalf("%s submit %d: %v", kind.Analytic, src, err)
					}
				}
				s.Start()
				for i, id := range ids {
					v := waitDone(t, s, id)
					if v.State != StateDone || v.Batch != len(sources) {
						t.Fatalf("%s source %d: state %s batch %d err %q", kind.Analytic, sources[i], v.State, v.Batch, v.Err)
					}
					solo := kind
					solo.Sources = []uint32{sources[i]}
					solo.Normalize()
					want, _, err := cl.Run(&solo)
					if err != nil {
						t.Fatalf("%s solo %d: %v", kind.Analytic, sources[i], err)
					}
					if got := v.Result.Canonical(); string(got) != string(want.Canonical()) {
						t.Fatalf("%s Δ=%d source %d:\n batch member %s\n solo         %s",
							kind.Analytic, kind.Delta, sources[i], got, want.Canonical())
					}
				}
				s.Close()
			}
		})
	}
}

// TestSchedulerRetentionIsBounded fills the terminal-request window past
// retainMax with cache hits: the oldest requests are forgotten, the newest
// stay queryable, and the window's storage stops growing.
func TestSchedulerRetentionIsBounded(t *testing.T) {
	cl := newTestCluster(t, 2, nil)
	s := NewScheduler(cl, SchedConfig{QueueCap: 16, BatchMax: 1, CacheCap: 8})
	defer s.Close()
	s.Start()

	deadline := time.Now().Add(30 * time.Second)
	first, err := s.Submit(bfsJob(3), deadline)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitDone(t, s, first)
	var last string
	for i := 0; i < retainMax+100; i++ {
		if last, err = s.Submit(bfsJob(3), deadline); err != nil {
			t.Fatalf("cached submit %d: %v", i, err)
		}
	}
	if _, ok := s.Lookup(first); ok {
		t.Fatalf("request %s still retained after %d newer ones", first, retainMax+100)
	}
	if v, ok := s.Lookup(last); !ok || !v.Cached {
		t.Fatalf("newest request %s: retained %v view %+v", last, ok, v)
	}
	s.mu.Lock()
	jobs, ids, room := len(s.jobs), len(s.retained), cap(s.retained)
	s.mu.Unlock()
	if jobs != retainMax || ids != retainMax || room > 2*retainMax {
		t.Fatalf("retention window: %d requests, %d ids in %d slots; want %d, %d, <= %d",
			jobs, ids, room, retainMax, retainMax, 2*retainMax)
	}
}
