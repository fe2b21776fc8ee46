package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestServer stands up cluster + scheduler + HTTP API over httptest.
func newTestServer(t *testing.T, ranks int, sc SchedConfig) (*Cluster, *Scheduler, *httptest.Server) {
	t.Helper()
	cl := newTestCluster(t, ranks, nil)
	s := NewScheduler(cl, sc)
	s.Start()
	t.Cleanup(s.Close)
	ts := httptest.NewServer(NewServer(s, ServerConfig{DefaultTimeout: 30 * time.Second}))
	t.Cleanup(ts.Close)
	return cl, s, ts
}

// postQuery POSTs one /v1/query body and decodes the JSON answer.
func postQuery(t *testing.T, ts *httptest.Server, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatalf("POST /v1/query: %v", err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, m
}

func TestServerEndpoints(t *testing.T) {
	_, _, ts := newTestServer(t, 2, SchedConfig{QueueCap: 16, BatchMax: 4, CacheCap: 16})

	// Health first.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	// Synchronous query answers 200 with a result.
	code, m := postQuery(t, ts, `{"analytic":"bfs","source":3,"wait":true}`)
	if code != http.StatusOK {
		t.Fatalf("bfs query: status %d body %v", code, m)
	}
	if m["state"] != string(StateDone) || m["result"] == nil {
		t.Fatalf("bfs query body: %v", m)
	}

	// Async query answers 202 with a pollable id.
	code, m = postQuery(t, ts, `{"analytic":"wcc"}`)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("async query: status %d body %v", code, m)
	}
	id, _ := m["id"].(string)
	if id == "" {
		t.Fatalf("async query: no id in %v", m)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s: %v %v", id, resp.StatusCode, err)
		}
		var jm map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&jm); err != nil {
			t.Fatalf("decoding job view: %v", err)
		}
		resp.Body.Close()
		if State(jm["state"].(string)).Terminal() {
			if jm["state"] != string(StateDone) {
				t.Fatalf("wcc job: %v", jm)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("wcc job never finished: %v", jm)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Repeated query comes back cached.
	code, m = postQuery(t, ts, `{"analytic":"bfs","source":3,"wait":true}`)
	if code != http.StatusOK || m["cached"] != true {
		t.Fatalf("repeat bfs: status %d cached %v", code, m["cached"])
	}

	// Bad requests: unknown analytic, unknown field, bad source.
	if code, _ = postQuery(t, ts, `{"analytic":"mincut","wait":true}`); code != http.StatusBadRequest {
		t.Fatalf("unknown analytic: status %d", code)
	}
	if code, _ = postQuery(t, ts, `{"analytic":"bfs","sauce":3}`); code != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d", code)
	}
	if code, _ = postQuery(t, ts, fmt.Sprintf(`{"analytic":"bfs","source":%d}`, testSpec.NumVertices+9)); code != http.StatusBadRequest {
		t.Fatalf("out-of-range source: status %d", code)
	}

	// Unknown job id is 404; stats exposes the counters.
	resp, err = http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %v %v", resp.StatusCode, err)
	}
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	resp.Body.Close()
	// ScanNumVertices derives n from the max edge endpoint, so it can
	// trail the spec's nominal vertex count.
	if st.Graph.Vertices == 0 || st.Graph.Vertices > testSpec.NumVertices || st.Graph.Ranks != 2 {
		t.Fatalf("stats graph: %+v", st.Graph)
	}
	if st.JobsRun == 0 || st.Scheduler.CacheHits == 0 {
		t.Fatalf("stats counters: jobs_run=%d cache_hits=%d", st.JobsRun, st.Scheduler.CacheHits)
	}
	if st.LastJob == nil || st.LastJob.SentMiB <= 0 {
		t.Fatalf("stats last_job: %+v", st.LastJob)
	}
}

// TestQueryRejectsOutOfRangeParameters: a damping outside (0, 1] or a
// max_weight above 2^32 used to run and answer "done" with a wrong score (a
// non-finite PageRank, a score above 1, a wrapped out-weight sum). Each is
// a 400 naming the field; the range ends are accepted.
func TestQueryRejectsOutOfRangeParameters(t *testing.T) {
	_, _, ts := newTestServer(t, 2, SchedConfig{QueueCap: 16, BatchMax: 4, CacheCap: 16})
	for _, tc := range []struct {
		body  string
		field string // "" = accepted
	}{
		{`{"analytic":"pagerank","damping":1e300,"iterations":2,"wait":true}`, "damping"},
		{`{"analytic":"pagerank","damping":-5,"iterations":2,"wait":true}`, "damping"},
		{`{"analytic":"pagerank","damping":1.0000001,"iterations":2,"wait":true}`, "damping"},
		{`{"analytic":"wpagerank","damping":-0.5,"max_weight":4,"iterations":2,"wait":true}`, "damping"},
		{`{"analytic":"wpagerank","max_weight":18446744073709551615,"iterations":2,"wait":true}`, "max_weight"},
		{`{"analytic":"wpagerank","max_weight":4294967297,"iterations":2,"wait":true}`, "max_weight"},
		{`{"analytic":"sssp","source":3,"max_weight":4294967297,"wait":true}`, "max_weight"},
		{`{"analytic":"pagerank","damping":1,"iterations":2,"wait":true}`, ""},
		{`{"analytic":"wpagerank","damping":1,"max_weight":4294967296,"iterations":2,"wait":true}`, ""},
		{`{"analytic":"sssp","source":3,"max_weight":4294967296,"wait":true}`, ""},
	} {
		code, m := postQuery(t, ts, tc.body)
		if tc.field == "" {
			if code != http.StatusOK || m["state"] != string(StateDone) {
				t.Errorf("%s: status %d body %v, want 200 done", tc.body, code, m)
			}
			continue
		}
		msg, _ := m["error"].(string)
		if code != http.StatusBadRequest || !strings.Contains(msg, tc.field) {
			t.Errorf("%s: status %d error %q, want 400 naming %s", tc.body, code, msg, tc.field)
		}
	}
}

// TestServerStress drives >= 64 overlapping mixed queries at the daemon and
// asserts the serving invariants: every request reaches exactly one terminal
// outcome (a result, a typed 429 rejection, or a deadline 504), and the
// scheduler never lets two SPMD jobs overlap on the resident ranks.
func TestServerStress(t *testing.T) {
	const clients = 64
	// Small queue so admission control actually rejects under burst.
	cl, s, ts := newTestServer(t, 2, SchedConfig{QueueCap: 24, BatchMax: 8, CacheCap: 64})

	type outcome struct {
		status int
		state  string
	}
	outcomes := make([]outcome, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var body string
			switch i % 8 {
			case 0, 1, 2:
				body = fmt.Sprintf(`{"analytic":"bfs","source":%d,"wait":true}`, i%5)
			case 3, 4:
				body = fmt.Sprintf(`{"analytic":"sssp","source":%d,"max_weight":4,"wait":true}`, i%3)
			case 5:
				body = fmt.Sprintf(`{"analytic":"harmonic","source":%d,"wait":true}`, i%3)
			case 6:
				body = `{"analytic":"wcc","wait":true}`
			default:
				body = `{"analytic":"pagerank","iterations":3,"wait":true,"timeout_ms":25000}`
			}
			resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewBufferString(body))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			var m map[string]any
			raw, _ := io.ReadAll(resp.Body)
			_ = json.Unmarshal(raw, &m)
			st, _ := m["state"].(string)
			outcomes[i] = outcome{status: resp.StatusCode, state: st}
		}(i)
	}
	wg.Wait()

	var done, rejected, expired int
	for i, o := range outcomes {
		switch o.status {
		case http.StatusOK:
			if o.state != string(StateDone) {
				t.Fatalf("client %d: 200 with state %q", i, o.state)
			}
			done++
		case http.StatusTooManyRequests:
			rejected++
		case http.StatusGatewayTimeout:
			expired++
		default:
			t.Fatalf("client %d: unexpected status %d (state %q)", i, o.status, o.state)
		}
	}
	if done+rejected+expired != clients {
		t.Fatalf("outcomes: %d done + %d rejected + %d expired != %d", done, rejected, expired, clients)
	}
	if done == 0 {
		t.Fatalf("no query completed under burst")
	}
	t.Logf("stress: %d done, %d rejected(429), %d expired(504), %d SPMD jobs, max batch %d",
		done, rejected, expired, cl.JobsRun(), s.Stats().MaxBatch)

	// The core serving invariant: one SPMD job at a time on the ranks.
	if got := cl.MaxConcurrentJobs(); got > 1 {
		t.Fatalf("scheduler overlapped %d SPMD jobs on the cluster", got)
	}
	// Accounting closes: every admitted request reached exactly one
	// terminal state.
	st := s.Stats()
	if st.Submitted != st.Done+st.Failed+st.Expired {
		t.Fatalf("scheduler accounting leak: %+v", st)
	}
	// Batching had material effect under burst: fewer SPMD jobs than
	// completed queries means coalescing and/or caching did their work.
	if uint64(done) <= cl.JobsRun() && st.Coalesced == 0 && st.CacheHits == 0 {
		t.Fatalf("burst showed no coalescing or caching: done=%d jobs=%d %+v", done, cl.JobsRun(), st)
	}
}
