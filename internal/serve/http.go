package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/analytics"
	"repro/internal/edge"
	"repro/internal/obs"
)

// ServerConfig shapes the HTTP front end.
type ServerConfig struct {
	// DefaultTimeout caps a request's queue+run deadline when the client
	// does not pass timeout_ms. <= 0 selects 30s.
	DefaultTimeout time.Duration
}

// withDefaults normalizes the zero values.
func (c ServerConfig) withDefaults() ServerConfig {
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	return c
}

// maxTimeout bounds client-supplied timeouts.
const maxTimeout = 5 * time.Minute

// deadline is now plus the client's timeout_ms, at most maxTimeout, or
// plus DefaultTimeout when the client passed none.
func (s *Server) deadline(timeoutMS int64) time.Time {
	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = min(time.Duration(timeoutMS)*time.Millisecond, maxTimeout)
	}
	return time.Now().Add(timeout)
}

// Server is the HTTP/JSON API over a scheduler: POST /v1/query submits a
// job (optionally waiting for its result), GET /v1/jobs/{id} polls it,
// GET /v1/stats exports scheduler/cache/comm counters, and GET /healthz
// answers load-balancer probes.
type Server struct {
	sched   *Scheduler
	cfg     ServerConfig
	mux     *http.ServeMux
	started time.Time
}

// NewServer wires the API routes over a scheduler.
func NewServer(sched *Scheduler, cfg ServerConfig) *Server {
	s := &Server{sched: sched, cfg: cfg.withDefaults(), mux: http.NewServeMux(), started: time.Now()}
	s.mux.HandleFunc("/v1/query", s.handleQuery)
	s.mux.HandleFunc("/v1/mutate", s.handleMutate)
	s.mux.HandleFunc("/v1/jobs/", s.handleJob)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/admin/kill", s.handleKill)
	s.mux.HandleFunc("/v1/admin/compact", s.handleCompact)
	s.mux.HandleFunc("/v1/admin/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// queryRequest is the POST /v1/query body: a Job plus transport options.
// "source" is sugar for a one-element "sources".
type queryRequest struct {
	analytics.Job
	Source    *uint32 `json:"source,omitempty"`
	Wait      bool    `json:"wait,omitempty"`
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
}

// queryResponse answers /v1/query and /v1/jobs/{id}.
type queryResponse struct {
	RequestView
	// Error carries the admission failure for non-2xx answers.
	Error string `json:"admission_error,omitempty"`
}

// writeJSON emits one JSON body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits a JSON error body.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// handleQuery admits one analytic query. With "wait": true the handler
// blocks until the job is terminal or the request deadline passes (a
// deadline pass answers 504 with the job id still queryable).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var q queryRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&q); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding query: %w", err))
		return
	}
	if q.Job.Mutating() {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("%s is not a query analytic: use POST /v1/mutate or /v1/admin/compact", q.Job.Analytic))
		return
	}
	if q.Source != nil {
		q.Job.Sources = append(q.Job.Sources, *q.Source)
	}
	deadline := s.deadline(q.TimeoutMS)

	id, err := s.sched.Submit(&q.Job, deadline)
	if err != nil {
		switch {
		case errors.Is(err, ErrBadRequest):
			writeError(w, http.StatusBadRequest, err)
		case errors.Is(err, ErrQueueFull):
			writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrShuttingDown):
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}

	if !q.Wait {
		view, _ := s.sched.Lookup(id)
		status := http.StatusAccepted
		if view.State.Terminal() {
			status = http.StatusOK
		}
		writeJSON(w, status, queryResponse{RequestView: view})
		return
	}

	ctx, cancel := context.WithDeadline(r.Context(), deadline)
	defer cancel()
	view, ok := s.sched.Wait(ctx, id)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("job %s vanished", id))
		return
	}
	s.writeView(w, view)
}

// mutateRequest is the POST /v1/mutate body: one ordered batch of edge
// insertions and deletions (op 1 = insert, 2 = delete), with the same
// wait/timeout transport options as /v1/query.
type mutateRequest struct {
	Mutations edge.Batch `json:"mutations"`
	Wait      bool       `json:"wait,omitempty"`
	TimeoutMS int64      `json:"timeout_ms,omitempty"`
}

// handleMutate admits one ingest batch. The batch is validated at
// admission (op codes, endpoint bounds, batch size), ordered against
// queries by the scheduler's serialized dispatch, and acknowledged only
// after every shard applied its records; the response result
// carries the graph epoch the batch created.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var q mutateRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&q); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding mutation batch: %w", err))
		return
	}
	deadline := s.deadline(q.TimeoutMS)
	job := &analytics.Job{Analytic: analytics.JobMutate, Mutations: q.Mutations}
	id, err := s.sched.Submit(job, deadline)
	if err != nil {
		switch {
		case errors.Is(err, ErrBadRequest):
			writeError(w, http.StatusBadRequest, err)
		case errors.Is(err, ErrQueueFull):
			writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrShuttingDown):
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	if !q.Wait {
		view, _ := s.sched.Lookup(id)
		status := http.StatusAccepted
		if view.State.Terminal() {
			status = http.StatusOK
		}
		writeJSON(w, status, queryResponse{RequestView: view})
		return
	}
	ctx, cancel := context.WithDeadline(r.Context(), deadline)
	defer cancel()
	view, ok := s.sched.Wait(ctx, id)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("job %s vanished", id))
		return
	}
	s.writeView(w, view)
}

// writeView maps a request snapshot onto an HTTP status.
func (s *Server) writeView(w http.ResponseWriter, v RequestView) {
	switch v.State {
	case StateDone:
		writeJSON(w, http.StatusOK, queryResponse{RequestView: v})
	case StateFailed:
		writeJSON(w, http.StatusInternalServerError, queryResponse{RequestView: v})
	default:
		// Expired, or still queued/running past the wait deadline: the
		// job was admitted but its answer is late — 504, id pollable.
		writeJSON(w, http.StatusGatewayTimeout, queryResponse{RequestView: v})
	}
}

// handleJob answers GET /v1/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.Contains(id, "/") {
		writeError(w, http.StatusBadRequest, errors.New("want /v1/jobs/{id}"))
		return
	}
	view, ok := s.sched.Lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %s", id))
		return
	}
	writeJSON(w, http.StatusOK, queryResponse{RequestView: view})
}

// statsResponse is the /v1/stats body.
type statsResponse struct {
	Graph struct {
		Vertices     uint32  `json:"vertices"`
		Edges        uint64  `json:"edges"`
		Ranks        int     `json:"ranks"`
		Epoch        uint64  `json:"epoch"`
		BuildSeconds float64 `json:"build_seconds"`
		Replicas     int     `json:"replicas"`
		Generation   uint64  `json:"generation"`
		AliveHosts   int     `json:"alive_hosts"`
	} `json:"graph"`
	Scheduler SchedStats           `json:"scheduler"`
	Ingest    IngestStats          `json:"ingest"`
	Failover  obs.FailoverSnapshot `json:"failover"`
	Plans     obs.PlanSnapshot     `json:"plans"`
	Store     *StoreStats          `json:"store,omitempty"`
	JobsRun   uint64               `json:"jobs_run"`
	UptimeSec float64              `json:"uptime_seconds"`
	LastJob   *lastJobJSON         `json:"last_job,omitempty"`
}

// lastJobJSON is the most recent SPMD job's communication summary.
type lastJobJSON struct {
	SentMiB      float64              `json:"sent_mib"`
	Rank0CompSec float64              `json:"rank0_comp_seconds"`
	Rank0CommSec float64              `json:"rank0_comm_seconds"`
	Rank0IdleSec float64              `json:"rank0_idle_seconds"`
	Collectives  []obs.CollectiveJSON `json:"collectives,omitempty"`
}

// handleStats exports the service counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	cl := s.sched.cl
	var resp statsResponse
	resp.Graph.Vertices = cl.NumVertices()
	resp.Graph.Edges = cl.NumEdges()
	resp.Graph.Ranks = cl.Size()
	resp.Graph.Epoch = cl.Epoch()
	resp.Graph.BuildSeconds = cl.BuildTime().Seconds()
	resp.Graph.Replicas = cl.Replicas()
	resp.Graph.Generation = cl.Generation()
	resp.Graph.AliveHosts = cl.AliveHosts()
	resp.Scheduler = s.sched.Stats()
	resp.Ingest = cl.IngestStats()
	resp.Failover = cl.FailoverStats()
	resp.Plans = cl.PlanStats()
	resp.Store = cl.StoreStats()
	resp.JobsRun = cl.JobsRun()
	resp.UptimeSec = time.Since(s.started).Seconds()
	if js, ok := s.sched.LastJobStats(); ok {
		resp.LastJob = &lastJobJSON{
			SentMiB:      float64(js.SentBytes) / (1 << 20),
			Rank0CompSec: js.Rank0.Comp.Seconds(),
			Rank0CommSec: js.Rank0.CommT.Seconds(),
			Rank0IdleSec: js.Rank0.Idle.Seconds(),
			Collectives:  obs.SnapshotJSON(js.Collectives),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleKill answers POST /v1/admin/kill {"host": n}: it condemns one
// replica host, aborting the live compute group so failover runs — the
// operational kill-a-rank drill (and the chaos recipe in EXPERIMENTS.md).
// With no replication this kills the service; the endpoint refuses only
// structurally invalid hosts, not unwise drills.
func (s *Server) handleKill(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var body struct {
		Host *int `json:"host"`
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil || body.Host == nil {
		writeError(w, http.StatusBadRequest, errors.New(`want {"host": n}`))
		return
	}
	if err := s.sched.cl.Kill(*body.Host); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"killed":      *body.Host,
		"alive_hosts": s.sched.cl.AliveHosts(),
	})
}

// handleCompact answers POST /v1/admin/compact {}: it materializes every
// shard's overlay in the background (the old epoch keeps serving) and then
// swaps the merged graphs in as the new bases through one serialized
// compact job. "compacted": false means there was nothing to compact or a
// mutation raced the merge — retry, or rely on auto-compaction.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	res, err := s.sched.cl.Compact()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"compacted": res.Compacted,
		"swapped":   res.Applied,
		"epoch":     res.Epoch,
	})
}

// handleSnapshot answers POST /v1/admin/snapshot {}: it persists every
// served shard (and every backup replica) into the attached store through
// one serialized snapshot job and commits a manifest the daemon can boot
// from. "persisted": false with a detail means an IO failure left the
// previous manifest in place. 400 when the daemon has no -store.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	res, err := s.sched.cl.Snapshot()
	if err != nil {
		status := http.StatusInternalServerError
		if s.sched.cl.StoreStats() == nil {
			status = http.StatusBadRequest // no -store attached
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"persisted": res.Persisted,
		"files":     res.Applied,
		"epoch":     res.Epoch,
		"detail":    res.Detail,
	})
}

// handleHealthz answers probes: 200 while the cluster serves, 503 after it
// has terminated.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.sched.cl.Alive() {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		return
	}
	writeError(w, http.StatusServiceUnavailable, ErrClusterDown)
}
