package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/edge"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/seq"
)

// Plan-cache battery. A slot's kernel plans (retained halo queues and their
// geometry) live on its per-generation Ctx; building one is collective, so
// the cache must be warm on every slot or on none at every job boundary.
// These tests pin that invariant where it can break: a mutation that
// changes one shard only, a failover, and a fault inside the build itself.

// runDirect runs one read straight on the cluster — no scheduler, so no
// result cache between the test and the kernels — bounded by a timeout: a
// slot that kept a plan its peers rebuild hangs the group, it does not
// fail it.
func runDirect(t *testing.T, cl *Cluster, q *analytics.Job) []byte {
	t.Helper()
	type answer struct {
		canon []byte
		err   error
	}
	done := make(chan answer, 1)
	go func() {
		cp := *q
		res, _, err := cl.Run(&cp)
		if err != nil {
			done <- answer{err: err}
			return
		}
		done <- answer{canon: res.Canonical()}
	}()
	select {
	case a := <-done:
		if a.err != nil {
			t.Fatalf("%s: %v", q.Analytic, a.err)
		}
		return a.canon
	case <-time.After(time.Minute):
		t.Fatalf("%s: no answer after a minute — the group is stuck in a collective", q.Analytic)
		return nil
	}
}

// slotPlanStats snapshots every slot's plan counters.
func slotPlanStats(cl *Cluster) []obs.PlanSnapshot {
	out := make([]obs.PlanSnapshot, cl.size)
	for s := range out {
		out[s] = cl.planStats[s].Snapshot()
	}
	return out
}

// planDelta returns what every slot counted since before, and requires
// that to be the same on all of them: within a live generation plans are
// built, hit and reset in lockstep or not at all. (The cumulative totals
// may differ after a failover — a dying generation's abort can catch one
// slot a round behind a peer that already stored its build.)
func planDelta(t *testing.T, cl *Cluster, before []obs.PlanSnapshot) obs.PlanSnapshot {
	t.Helper()
	var d0 obs.PlanSnapshot
	for s, now := range slotPlanStats(cl) {
		d := obs.PlanSnapshot{
			Builds: now.Builds - before[s].Builds,
			Hits:   now.Hits - before[s].Hits,
			Resets: now.Resets - before[s].Resets,
		}
		if s == 0 {
			d0 = d
		} else if d != d0 {
			t.Fatalf("slot %d counted %+v, slot 0 %+v", s, d, d0)
		}
	}
	return d0
}

// coldWarmAnswers runs every query twice on the cluster: once right after a
// lockstep plan reset (a compact job at a version the overlay is not at
// swaps nothing, but it is a mutating job), once against the plans the
// first run left. The two answers must be the same bytes, the warm run
// must build nothing, and the answers are returned.
func coldWarmAnswers(t *testing.T, cl *Cluster, queries []*analytics.Job) [][]byte {
	t.Helper()
	out := make([][]byte, len(queries))
	for i, q := range queries {
		start := slotPlanStats(cl)
		if _, _, err := cl.Run(&analytics.Job{Analytic: analytics.JobCompact, CompactVersion: ^uint64(0)}); err != nil {
			t.Fatalf("plan-reset compact: %v", err)
		}
		if d := planDelta(t, cl, start); d.Resets != 1 {
			t.Fatalf("stale compact job reset the plans %d times, want 1", d.Resets)
		}
		cold := runDirect(t, cl, q)
		built := planDelta(t, cl, start).Builds
		mid := slotPlanStats(cl)
		warm := runDirect(t, cl, q)
		if !bytes.Equal(cold, warm) {
			t.Fatalf("%s: cold plan answered %s, warm plan %s", q.Analytic, cold, warm)
		}
		if d := planDelta(t, cl, mid); d.Builds != 0 || (built > 0 && d.Hits == 0) {
			t.Fatalf("%s: cold run built %d plans, warm run counted %+v", q.Analytic, built, d)
		}
		out[i] = cold
	}
	return out
}

// normalized fills the job's parameter defaults, as Submit would.
func normalized(j analytics.Job) *analytics.Job {
	j.Normalize()
	return &j
}

// denseQueries are traversal reads pinned to the dense engine, so they use
// the halo plan whatever the adaptive engine would pick on a small graph.
func denseQueries() []*analytics.Job {
	mk := normalized
	return []*analytics.Job{
		mk(analytics.Job{Analytic: analytics.JobBFS, Sources: []uint32{3}, Hybrid: "dense"}),
		mk(analytics.Job{Analytic: analytics.JobSSSP, Sources: []uint32{5}, MaxWeight: 9, WeightSeed: 17, Hybrid: "dense"}),
		mk(analytics.Job{Analytic: analytics.JobPageRank, Iterations: 8}),
		mk(analytics.Job{Analytic: analytics.JobWCC, Hybrid: "dense"}),
	}
}

// TestPlanResetIsLockstep warms every plan on a 4-slot cluster, applies a
// batch whose records route to exactly one shard, and reads again. Only
// that shard's served graph changed, but every slot must have dropped its
// plans: the reads neither hang nor diverge from a cluster rebuilt from
// the mutated edge list.
func TestPlanResetIsLockstep(t *testing.T) {
	base := ingestBase(t)
	// Sorted rows from the start: the untouched shards keep
	// serving their base CSR, and float sums must add in the rebuilt
	// cluster's order there too.
	cl := newIngestCluster(t, base, partition.Random, true, nil)
	queries := append(denseQueries(), ingestQueries()...)
	for _, q := range queries {
		runDirect(t, cl, q)
	}
	fresh := make([]obs.PlanSnapshot, cl.size)
	warm := planDelta(t, cl, fresh)
	if warm.Builds != 2 || warm.Resets != 0 || warm.Hits == 0 {
		t.Fatalf("after warming: %+v, want 2 builds (out, both), no reset", warm)
	}

	// An edge between two vertices of shard 0 that the graph lacks.
	states, err := cl.servedStates()
	if err != nil {
		t.Fatal(err)
	}
	part := states[0].part
	var owned []uint32
	for v := uint32(0); v < ingestSpec.NumVertices && len(owned) < 8; v++ {
		if part.Owner(v) == 0 {
			owned = append(owned, v)
		}
	}
	present := make(map[[2]uint32]bool, base.Len())
	for i := 0; i < base.Len(); i++ {
		present[[2]uint32{base.Src(i), base.Dst(i)}] = true
	}
	var batch edge.Batch
	for _, u := range owned {
		for _, v := range owned {
			if u != v && !present[[2]uint32{u, v}] && len(batch) < 3 {
				batch = append(batch, edge.Mutation{Op: edge.OpInsert, Src: u, Dst: v})
			}
		}
	}
	if len(batch) == 0 {
		t.Fatal("found no absent intra-shard edge to insert")
	}
	if _, _, err := cl.Run(&analytics.Job{Analytic: analytics.JobMutate, Mutations: batch}); err != nil {
		t.Fatalf("mutate: %v", err)
	}
	for s, st := range states {
		st.mu.Lock()
		touched := !st.delta.Empty()
		st.mu.Unlock()
		if touched != (s == 0) {
			t.Fatalf("shard %d overlay touched=%v: the batch was meant to touch shard 0 only", s, touched)
		}
	}
	if got := planDelta(t, cl, fresh); got.Resets != 1 || got.Builds != warm.Builds {
		t.Fatalf("after the batch: %+v, want one reset on every slot", got)
	}

	got := make([][]byte, len(queries))
	for i, q := range queries {
		got[i] = runDirect(t, cl, q)
	}
	if after := planDelta(t, cl, fresh); after.Builds != warm.Builds+2 {
		t.Fatalf("reads after the batch: %+v, want both plans rebuilt once", after)
	}
	reb := newIngestCluster(t, batch.ApplyTo(base), partition.Random, true, nil)
	for i, q := range queries {
		if want := runDirect(t, reb, q); !bytes.Equal(got[i], want) {
			t.Fatalf("%s: mutated cluster answered %s, rebuilt answered %s", q.Analytic, got[i], want)
		}
	}
}

// TestPlanCacheSurvivesFaultInHaloBuild kills a link in the halo's gid
// exchange of the first job: the failed build stores nothing, the
// generation dies, and the next one — cold on every slot — serves the
// requeued query and the rest of the battery with the healthy cluster's
// answers.
func TestPlanCacheSurvivesFaultInHaloBuild(t *testing.T) {
	mk := normalized
	queries := []*analytics.Job{
		mk(analytics.Job{Analytic: analytics.JobPageRank}),
		mk(analytics.Job{Analytic: analytics.JobBFS, Sources: []uint32{2}, Hybrid: "dense"}),
		mk(analytics.Job{Analytic: analytics.JobWCC}),
		mk(analytics.Job{Analytic: analytics.JobPageRankWeighted, MaxWeight: 8, WeightSeed: 5}),
	}
	healthy := healthyBaseline(t, queries)
	// Serving round 1 is the job broadcast; PageRank's first collective,
	// round 2, is the gid Alltoallv of its halo build.
	cfg := chaosClusterConfig()
	cfg.WrapTransport = fatalAt(1, buildRounds(t, chaosClusterConfig())+2)
	cl, s, views := runBattery(t, cfg, queries)
	defer func() {
		if err := cl.Close(); err != nil {
			t.Errorf("cluster close: %v", err)
		}
	}()
	assertIdentical(t, views, healthy)
	if fo := cl.FailoverStats(); fo.Failovers != 1 {
		t.Fatalf("failovers %d, want exactly the injected one", fo.Failovers)
	}
	if st := s.Stats(); st.Requeued < 1 || st.Failed != 0 {
		t.Fatalf("scheduler stats %+v: the killed PageRank was not replayed", st)
	}
	// Had generation zero's failed build been stored, some slot would count
	// three builds. (No slot gets past the faulted round, so here even the
	// totals across the failover agree.)
	if ps := planDelta(t, cl, make([]obs.PlanSnapshot, cl.size)); ps.Builds != 2 || ps.Hits == 0 {
		t.Fatalf("plan counters %+v, want the two plans built once, by generation one", ps)
	}
}

// TestStatsReportPlanCounters pins the /v1/stats surface of the counters.
func TestStatsReportPlanCounters(t *testing.T) {
	cl, _, ts := newTestServer(t, 2, SchedConfig{QueueCap: 16, BatchMax: 4, CacheCap: 16})
	for _, post := range [][2]string{
		{"/v1/query", `{"analytic":"pagerank","wait":true}`},
		{"/v1/query", `{"analytic":"wpagerank","max_weight":4,"wait":true}`},
		{"/v1/mutate", `{"mutations":[{"op":1,"src":1,"dst":2}],"wait":true}`},
	} {
		resp, err := http.Post(ts.URL+post[0], "application/json", bytes.NewBufferString(post[1]))
		if err != nil {
			t.Fatalf("POST %s: %v", post[0], err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s %s: status %d", post[0], post[1], resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	want := obs.PlanSnapshot{Builds: 1, Hits: 1, Resets: 1}
	if st.Plans != want || cl.PlanStats() != want {
		t.Fatalf("stats plans %+v (cluster %+v), want %+v", st.Plans, cl.PlanStats(), want)
	}
}

// TestPlanBFSRunnerFollowsGeneration pins the lifetime of the BFS runner a
// slot retains with its DirsBoth halo plan. A BFS before a mutate batch that
// widens the source's reach, after the batch and after a compaction each
// answers what the sequential oracle answers on that epoch's edge list, and
// the first BFS of each plan generation builds the halo — and with it a cold
// runner — on every slot, while a repeat reuses both. A failover generation
// starts cold the same way.
func TestPlanBFSRunnerFollowsGeneration(t *testing.T) {
	const src = 3
	for _, tc := range []struct {
		name string
		tf   func(*testing.T) TransportFactory
	}{
		{"inproc", func(*testing.T) TransportFactory { return nil }},
		{"tcp", tcpFactory},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := ingestBase(t)
			n := ingestSpec.NumVertices
			cl := newIngestCluster(t, base, partition.Random, false, tc.tf(t))
			job := normalized(analytics.Job{Analytic: analytics.JobBFS, Sources: []uint32{src}})
			oracle := func(list edge.List) []byte {
				levels := seq.BFS(seq.FromEdges(n, list), src, seq.Forward)
				sum := analytics.SourceSummary{Source: src}
				for _, l := range levels {
					if l >= 0 {
						sum.Reached++
						sum.Depth = max(sum.Depth, int(l))
					}
				}
				return (&analytics.JobResult{Analytic: analytics.JobBFS, Sources: []analytics.SourceSummary{sum}}).Canonical()
			}
			// check runs the BFS cold then warm: the first run on a fresh
			// plan cache builds the DirsBoth halo on every slot, the repeat
			// builds nothing, and both answer the oracle.
			check := func(when string, list edge.List) {
				t.Helper()
				want := oracle(list)
				start := slotPlanStats(cl)
				for i, builds := range []uint64{1, 0} {
					mark := slotPlanStats(cl)
					if got := runDirect(t, cl, job); !bytes.Equal(got, want) {
						t.Fatalf("%s, run %d: BFS answered %s, oracle %s", when, i, got, want)
					}
					if d := planDelta(t, cl, mark); d.Builds != builds {
						t.Fatalf("%s, run %d: %+v, want %d plan builds", when, i, d, builds)
					}
				}
				if d := planDelta(t, cl, start); d.Hits == 0 {
					t.Fatalf("%s: the warm run hit no plan (%+v)", when, d)
				}
			}
			check("before the batch", base)

			// Edges from the source to every vertex it cannot reach.
			reach := seq.BFS(seq.FromEdges(n, base), src, seq.Forward)
			var batch edge.Batch
			for v, l := range reach {
				if l < 0 && len(batch) < 4 {
					batch = append(batch, edge.Mutation{Op: edge.OpInsert, Src: src, Dst: uint32(v)})
				}
			}
			if len(batch) == 0 {
				t.Fatal("the source reaches every vertex: no batch can widen its reach")
			}
			mutated := batch.ApplyTo(base)
			if bytes.Equal(oracle(mutated), oracle(base)) {
				t.Fatal("the batch does not change the source's reach")
			}
			if _, _, err := cl.Run(&analytics.Job{Analytic: analytics.JobMutate, Mutations: batch}); err != nil {
				t.Fatalf("mutate: %v", err)
			}
			check("after the batch", mutated)
			if res, err := cl.Compact(); err != nil || !res.Compacted {
				t.Fatalf("compact: %+v, %v", res, err)
			}
			check("after the compaction", mutated)

			if err := cl.Kill(1); err != nil {
				t.Fatalf("Kill: %v", err)
			}
			deadline := time.Now().Add(time.Minute)
			for cl.Generation() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("no failover generation after a minute")
				}
				time.Sleep(5 * time.Millisecond)
			}
			check("after the failover", mutated)
		})
	}
}
