package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/edge"
	"repro/internal/partition"
)

// Chaos battery for the streaming-mutation subsystem: compaction racing a
// live query load, mutations racing identical query bursts (the epoch/cache
// race), and the end-to-end HTTP mutate → compact → epoch-swap cycle.

// TestCompactionUnderLoad pre-queues a mixed battery on a paused scheduler
// over a mutated cluster, then fires a compaction into the middle of the
// running battery. Every query must complete with an answer byte-identical
// to an identically mutated cluster that never compacts — the epoch swap
// may never drop or corrupt an in-flight answer — and the swap itself must
// be full.
func TestCompactionUnderLoad(t *testing.T) {
	base := ingestBase(t)
	batches, oracles := ingestSchedule(17, ingestSpec.NumVertices, base, 2, 40)
	// Three rounds of the 8-kind battery: enough runway for the compact
	// job to land somewhere in the middle of the stream.
	var queries []*analytics.Job
	for r := 0; r < 3; r++ {
		queries = append(queries, ingestQueries()...)
	}

	// mutateThenQueue applies the batches through a throwaway scheduler,
	// then pre-queues the battery on a paused one — identical queue state
	// on both clusters, so dispatch-time batching composes identically and
	// canonical bytes (which include merged-run round counts) line up.
	mutateThenQueue := func(cl *Cluster) (*Scheduler, []string) {
		ms := NewScheduler(cl, chaosSchedConfig())
		ms.Start()
		mutateAll(t, cl, ms, batches, oracles)
		ms.Close()
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
		return s, ids
	}
	collect := func(s *Scheduler, ids []string) [][]byte {
		out := make([][]byte, len(ids))
		for i, id := range ids {
			view := waitDone(t, s, id)
			if view.State != StateDone {
				t.Fatalf("query %d (%s): state %s (err %q)", i, queries[i].Analytic, view.State, view.Err)
			}
			out[i] = view.Result.Canonical()
		}
		return out
	}

	// Baseline: same base, same batches, same queue — no compaction.
	quiet := newIngestCluster(t, base, partition.Random, false, nil)
	qs, qids := mutateThenQueue(quiet)
	qs.Start()
	defer qs.Close()
	want := collect(qs, qids)

	// Loaded cluster: same setup, compaction fired into the running
	// battery.
	cl := newIngestCluster(t, base, partition.Random, false, nil)
	s, ids := mutateThenQueue(cl)
	s.Start()
	defer s.Close()
	res, err := cl.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if !res.Compacted || res.Applied != uint64(cl.Size()) {
		t.Fatalf("compact under load was not a full swap: %+v", res)
	}
	got := collect(s, ids)
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("query %d (%s) diverged across compaction:\n  got:  %s\n  want: %s",
				i, queries[i].Analytic, got[i], want[i])
		}
	}
	// Post-swap, the cluster must still answer right: a cold-cache
	// sequential pass on each cluster (the compacted one's epoch bump
	// already invalidated its entries; give the quiet one a cold scheduler
	// too so neither serves batched-run entries) recomputes and matches.
	s.Close()
	qs.Close()
	s2 := NewScheduler(cl, chaosSchedConfig())
	s2.Start()
	defer s2.Close()
	q2 := NewScheduler(quiet, chaosSchedConfig())
	q2.Start()
	defer q2.Close()
	after := answersOn(t, s2, ingestQueries())
	quietAfter := answersOn(t, q2, ingestQueries())
	for i := range after {
		if !bytes.Equal(after[i], quietAfter[i]) {
			t.Fatalf("post-compaction answer %d diverged", i)
		}
	}
}

// TestEpochRaceNoStaleCache pins the scheduler's dispatch-time epoch
// capture: a burst of identical queries racing a mutate batch must never
// leave a pre-mutation answer cached under the post-mutation epoch. After
// each racing round, a fresh query must answer exactly what a cluster
// rebuilt from the mutated edge list answers.
func TestEpochRaceNoStaleCache(t *testing.T) {
	base := ingestBase(t)
	batches, oracles := ingestSchedule(23, ingestSpec.NumVertices, base, 2, 40)
	probe := &analytics.Job{Analytic: analytics.JobPageRank, Iterations: 8}
	probe.Normalize()

	cl := newIngestCluster(t, base, partition.Random, false, nil)
	s := NewScheduler(cl, chaosSchedConfig())
	s.Start()
	defer s.Close()

	for bi, batch := range batches {
		// Fire the burst and the mutate concurrently: some queries land
		// before the batch, some after, some from cache — all must
		// terminate, and none may poison the post-mutation epoch.
		const burst = 6
		var wg sync.WaitGroup
		errs := make([]error, burst+1)
		for i := 0; i < burst; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				cp := *probe
				id, err := s.Submit(&cp, time.Now().Add(2*time.Minute))
				if err != nil {
					errs[i] = err
					return
				}
				if view := waitDone(t, s, id); view.State != StateDone {
					errs[i] = fmt.Errorf("burst query %d: state %s (%s)", i, view.State, view.Err)
				}
			}(i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			cp := analytics.Job{Analytic: analytics.JobMutate, Mutations: batch}
			id, err := s.Submit(&cp, time.Now().Add(2*time.Minute))
			if err != nil {
				errs[burst] = err
				return
			}
			if view := waitDone(t, s, id); view.State != StateDone {
				errs[burst] = fmt.Errorf("mutate: state %s (%s)", view.State, view.Err)
			}
		}()
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}

		// The truth for this round: a cluster rebuilt from the oracle list.
		reb := newIngestCluster(t, oracles[bi], partition.Random, true, nil)
		rs := NewScheduler(reb, chaosSchedConfig())
		rs.Start()
		want := answersOn(t, rs, []*analytics.Job{probe})[0]
		rs.Close()

		got := answersOn(t, s, []*analytics.Job{probe})[0]
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: post-mutation answer diverged from rebuilt truth (stale epoch cache?):\n  got:  %s\n  want: %s",
				bi, got, want)
		}
	}
}

// mutationsJSON renders a batch as the /v1/mutate wire form.
func mutationsJSON(b edge.Batch) string {
	buf, err := json.Marshal(b)
	if err != nil {
		panic(err)
	}
	return string(buf)
}

// postJSON posts a body and decodes the JSON response.
func postJSON(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding response from %s: %v", url, err)
	}
	return resp.StatusCode, m
}

// queryResult runs one synchronous query against a server and returns the
// decoded result object.
func queryResult(t *testing.T, url, body string) map[string]any {
	t.Helper()
	code, m := postJSON(t, url+"/v1/query", body)
	if code != http.StatusOK {
		t.Fatalf("query %s: status %d body %v", body, code, m)
	}
	res, _ := m["result"].(map[string]any)
	if res == nil {
		t.Fatalf("query %s: no result in %v", body, m)
	}
	return res
}

// statsEpoch reads graph.epoch and the ingest counters from /v1/stats.
func statsEpoch(t *testing.T, url string) (uint64, IngestStats) {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/stats: %v %v", resp, err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	return st.Graph.Epoch, st.Ingest
}

// TestHTTPMutateCompactCycle is the end-to-end acceptance: graphd (the
// HTTP layer over cluster+scheduler) serves continuously across a mutate →
// compact → epoch-swap cycle, the epoch advances at each step, mutating
// analytics are rejected on the query endpoint, and post-mutation answers
// match a server rebuilt from the mutated edge list.
func TestHTTPMutateCompactCycle(t *testing.T) {
	base := ingestBase(t)
	batches, oracles := ingestSchedule(99, ingestSpec.NumVertices, base, 1, 30)
	batch, final := batches[0], oracles[0]

	cl := newIngestCluster(t, base, partition.Random, false, nil)
	s := NewScheduler(cl, chaosSchedConfig())
	s.Start()
	defer s.Close()
	ts := httptest.NewServer(NewServer(s, ServerConfig{DefaultTimeout: 30 * time.Second}))
	defer ts.Close()

	// The query endpoint refuses mutating analytics.
	for _, bad := range []string{`{"analytic":"mutate","wait":true}`, `{"analytic":"compact","wait":true}`} {
		if code, m := postJSON(t, ts.URL+"/v1/query", bad); code != http.StatusBadRequest {
			t.Fatalf("query %s: status %d body %v, want 400", bad, code, m)
		}
	}

	// Serve before, mutate, serve after — the service never pauses.
	pre := queryResult(t, ts.URL, `{"analytic":"bfs","source":3,"wait":true}`)
	if pre == nil {
		t.Fatal("no pre-mutation answer")
	}
	epoch0, _ := statsEpoch(t, ts.URL)

	code, m := postJSON(t, ts.URL+"/v1/mutate",
		fmt.Sprintf(`{"mutations":%s,"wait":true}`, mutationsJSON(batch)))
	if code != http.StatusOK {
		t.Fatalf("mutate: status %d body %v", code, m)
	}
	res, _ := m["result"].(map[string]any)
	if res == nil || res["applied"] != float64(len(batch)) {
		t.Fatalf("mutate result: %v", m)
	}
	epoch1, ingest := statsEpoch(t, ts.URL)
	if epoch1 <= epoch0 {
		t.Fatalf("epoch did not advance on mutate: %d -> %d", epoch0, epoch1)
	}
	if ingest.Batches != 1 || ingest.Records != uint64(len(batch)) || ingest.Merges != 0 {
		t.Fatalf("ingest counters after mutate: %+v", ingest)
	}

	// Post-mutation truth: a server over a cluster rebuilt from the
	// mutated edge list.
	reb := newIngestCluster(t, final, partition.Random, true, nil)
	rsched := NewScheduler(reb, chaosSchedConfig())
	rsched.Start()
	defer rsched.Close()
	rts := httptest.NewServer(NewServer(rsched, ServerConfig{DefaultTimeout: 30 * time.Second}))
	defer rts.Close()

	probes := []string{
		`{"analytic":"bfs","source":3,"wait":true}`,
		`{"analytic":"wcc","wait":true}`,
		`{"analytic":"pagerank","iterations":8,"wait":true}`,
	}
	mutated := make([]map[string]any, len(probes))
	for i, p := range probes {
		mutated[i] = queryResult(t, ts.URL, p)
		want := queryResult(t, rts.URL, p)
		if !reflect.DeepEqual(mutated[i], want) {
			t.Fatalf("post-mutation %s diverged from rebuilt server:\n  got:  %v\n  want: %v", p, mutated[i], want)
		}
	}

	// Compact: full swap, epoch advances, answers unchanged.
	code, m = postJSON(t, ts.URL+"/v1/admin/compact", `{}`)
	if code != http.StatusOK {
		t.Fatalf("compact: status %d body %v", code, m)
	}
	if m["compacted"] != true || m["swapped"] != float64(cl.Size()) {
		t.Fatalf("compact response: %v", m)
	}
	epoch2, ingest := statsEpoch(t, ts.URL)
	if epoch2 <= epoch1 {
		t.Fatalf("epoch did not advance on compact: %d -> %d", epoch1, epoch2)
	}
	// The first read after the batch merged every touched shard once; the
	// compaction promoted those merges instead of repeating them.
	if ingest.Compactions != 1 || ingest.Merges == 0 || ingest.Merges > uint64(cl.Size()) || ingest.MergeMsTotal <= 0 {
		t.Fatalf("ingest counters after compact: %+v", ingest)
	}
	for i, p := range probes {
		if got := queryResult(t, ts.URL, p); !reflect.DeepEqual(got, mutated[i]) {
			t.Fatalf("post-compaction %s diverged:\n  got:  %v\n  want: %v", p, got, mutated[i])
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after cycle: %v %v", resp, err)
	}
	resp.Body.Close()
}
