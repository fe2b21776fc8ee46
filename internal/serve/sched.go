package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"time"

	"repro/internal/analytics"
	"repro/internal/comm"
	"repro/internal/obs"
)

// Typed admission outcomes. The HTTP layer maps these onto status codes
// (429, 503, 400, 504); everything else surfaces as an internal failure.
var (
	// ErrQueueFull rejects a request because the bounded admission queue
	// is at capacity (HTTP 429).
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrShuttingDown rejects a request because the scheduler is draining
	// (HTTP 503).
	ErrShuttingDown = errors.New("serve: shutting down")
	// ErrBadRequest wraps job validation failures (HTTP 400).
	ErrBadRequest = errors.New("serve: invalid request")
	// ErrDeadline marks a request whose deadline passed before its job
	// was dispatched (HTTP 504).
	ErrDeadline = errors.New("serve: deadline exceeded before dispatch")
)

// SpanServeJob is emitted by the dispatcher around every SPMD job it runs;
// the span's arg is the number of coalesced requests the job answered, so
// batching is observable (and assertable) from the trace alone.
const SpanServeJob = "serve/job"

// SchedConfig shapes admission control and batching.
type SchedConfig struct {
	// QueueCap bounds the admission queue; submissions beyond it are
	// rejected with ErrQueueFull. <= 0 selects 64.
	QueueCap int
	// BatchMax caps how many pending same-analytic single-source requests
	// coalesce into one multi-source SPMD job. The job still traverses once
	// per source; what coalescing buys is one dispatch (broadcast, result
	// reduction, plan-cache and stats bookkeeping), one kernel prologue (for
	// SSSP the weight pass and light/heavy split) and one retained scratch
	// for all members. <= 0 selects 8; 1 disables batching. Bounded above
	// by analytics.MaxSources.
	BatchMax int
	// CacheCap bounds the SIEVE result cache in entries; <= 0 disables
	// caching.
	CacheCap int
	// Tracer, when non-nil, receives one SpanServeJob span per SPMD job
	// from the dispatcher goroutine.
	Tracer *obs.Tracer
}

// withDefaults normalizes the zero values.
func (c SchedConfig) withDefaults() SchedConfig {
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 8
	}
	if c.BatchMax > analytics.MaxSources {
		c.BatchMax = analytics.MaxSources
	}
	if c.CacheCap < 0 {
		c.CacheCap = 0
	}
	return c
}

// State is a request's lifecycle position. Terminal states are StateDone,
// StateFailed, and StateExpired; a request reaches exactly one of them at
// most once.
type State string

// Request lifecycle states.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
	StateExpired State = "expired"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateExpired
}

// request is the scheduler's record of one admitted query. All mutable
// fields are guarded by the scheduler's mutex; done closes exactly once,
// when the request reaches its terminal state.
type request struct {
	id       string
	job      *analytics.Job
	deadline time.Time

	state    State
	result   *analytics.JobResult
	err      error
	cached   bool
	batch    int // coalesced request count of the SPMD run that answered it
	requeues int // times the request was replayed after a group death

	enqueued time.Time
	finished time.Time
	done     chan struct{}
}

// RequestView is an immutable snapshot of a request, safe to hand across
// goroutines and to serialize.
type RequestView struct {
	ID       string               `json:"id"`
	State    State                `json:"state"`
	Analytic string               `json:"analytic"`
	Result   *analytics.JobResult `json:"result,omitempty"`
	Err      string               `json:"error,omitempty"`
	// ErrKind discriminates failures for clients and tests: "shard-lost",
	// "cluster-down", "deadline", "shutdown", "bad-request",
	// "comm-<kind>" (the originating CommError's taxonomy kind), or
	// "internal".
	ErrKind  string `json:"error_kind,omitempty"`
	Cached   bool   `json:"cached,omitempty"`
	Batch    int    `json:"batch,omitempty"`
	Requeues int    `json:"requeues,omitempty"`
	WaitedMS int64  `json:"waited_ms,omitempty"`
}

// errKindLabel classifies a terminal failure for RequestView.ErrKind. The
// shard-lost check precedes cluster-down because the terminal downErr
// wraps both sentinels.
func errKindLabel(err error) string {
	switch {
	case errors.Is(err, ErrShardLost):
		return "shard-lost"
	case errors.Is(err, ErrClusterDown):
		return "cluster-down"
	case errors.Is(err, ErrDeadline):
		return "deadline"
	case errors.Is(err, ErrShuttingDown):
		return "shutdown"
	case errors.Is(err, ErrBadRequest):
		return "bad-request"
	}
	var ce *comm.CommError
	if errors.As(err, &ce) {
		return "comm-" + ce.Kind.String()
	}
	return "internal"
}

// retainMax bounds how many terminal requests stay queryable through
// /v1/jobs/{id}; beyond it the oldest are forgotten.
const retainMax = 4096

// SchedStats is the scheduler counter snapshot for /v1/stats.
type SchedStats struct {
	QueueDepth  int        `json:"queue_depth"`
	Submitted   uint64     `json:"submitted"`
	Done        uint64     `json:"done"`
	Failed      uint64     `json:"failed"`
	Expired     uint64     `json:"expired"`
	Rejected429 uint64     `json:"rejected_429"`
	Rejected503 uint64     `json:"rejected_503"`
	Batches     uint64     `json:"batches"`
	Coalesced   uint64     `json:"coalesced"`
	MaxBatch    int        `json:"max_batch"`
	CacheHits   uint64     `json:"cache_hits"`
	CacheMisses uint64     `json:"cache_misses"`
	Requeued    uint64     `json:"requeued"`
	DedupeHits  uint64     `json:"dedupe_hits"`
	Cache       CacheStats `json:"cache"`
}

// schedMaxRequeues bounds how many times one request is replayed across
// group deaths before it fails. Each failover removes a host, so a healthy
// recovery replays a request only a handful of times; the cap is a
// backstop against a pathological flap, sized above the worst case of a
// large group dying one host per dispatch.
const schedMaxRequeues = 16

// Scheduler admits analytic queries against a resident cluster: bounded
// queue, per-request deadlines, single-dispatcher serialization (one SPMD
// job at a time), source batching, and a result cache in front of it all.
type Scheduler struct {
	cl  *Cluster
	cfg SchedConfig

	cache *resultCache

	mu       sync.Mutex
	queue    []*request
	jobs     map[string]*request
	retained []string // ids of terminal requests: a ring once retainMax long
	oldest   int      // index of the oldest id in a full ring
	nextID   uint64
	closed   bool
	started  bool
	stats    SchedStats
	lastJob  *JobStats

	wake chan struct{}
	idle chan struct{} // closed when the dispatcher exits
}

// NewScheduler wraps a cluster in admission control. The dispatcher does
// not run until Start is called, so tests (and servers that want to
// pre-warm the queue) control exactly when jobs begin flowing.
func NewScheduler(cl *Cluster, cfg SchedConfig) *Scheduler {
	cfg = cfg.withDefaults()
	return &Scheduler{
		cl:    cl,
		cfg:   cfg,
		cache: newResultCache(cfg.CacheCap),
		jobs:  make(map[string]*request),
		wake:  make(chan struct{}, 1),
		idle:  make(chan struct{}),
	}
}

// Start launches the dispatcher goroutine. Idempotent.
func (s *Scheduler) Start() {
	s.mu.Lock()
	if s.started || s.closed {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	go s.dispatch()
}

// Submit admits one query. A cache hit returns an already-terminal request
// without touching the queue or the cluster; on a cluster that is no longer
// alive every query, cached or not, returns an already-failed request
// carrying the cluster's terminal error. Typed errors: ErrBadRequest
// (invalid job), ErrQueueFull (admission queue at capacity), and
// ErrShuttingDown (scheduler draining). deadline may be zero for "no
// deadline".
func (s *Scheduler) Submit(job *analytics.Job, deadline time.Time) (string, error) {
	job.Normalize()
	if err := job.Validate(s.cl.NumVertices()); err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	alive := s.cl.Alive()
	var res *analytics.JobResult
	cached := false
	if alive {
		res, cached = s.lookupCached(job)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.stats.Rejected503++
		return "", ErrShuttingDown
	}
	switch {
	case !alive:
		r := s.newRequestLocked(job, deadline)
		s.stats.Submitted++
		s.finishLocked(r, StateFailed, nil, s.cl.downErr())
		return r.id, nil
	case cached:
		r := s.newRequestLocked(job, deadline)
		r.cached = true
		s.stats.Submitted++
		s.stats.CacheHits++
		s.finishLocked(r, StateDone, res, nil)
		return r.id, nil
	}
	if len(s.queue) >= s.cfg.QueueCap {
		s.stats.Rejected429++
		return "", ErrQueueFull
	}
	r := s.newRequestLocked(job, deadline)
	r.state = StateQueued
	s.queue = append(s.queue, r)
	s.stats.Submitted++
	if !job.Mutating() {
		s.stats.CacheMisses++
	}
	s.signal()
	return r.id, nil
}

// lookupCached is the admission-time cache probe. Mutating jobs (ingest,
// compaction) never consult the cache: a mutate must reach the cluster
// even when a byte-identical batch was just acknowledged.
func (s *Scheduler) lookupCached(job *analytics.Job) (*analytics.JobResult, bool) {
	if job.Mutating() {
		return nil, false
	}
	return s.cache.Get(cacheKey(s.cl.Epoch(), job))
}

// newRequestLocked allocates and registers a request record.
func (s *Scheduler) newRequestLocked(job *analytics.Job, deadline time.Time) *request {
	s.nextID++
	r := &request{
		id:       fmt.Sprintf("j%08d", s.nextID),
		job:      job,
		deadline: deadline,
		enqueued: time.Now(),
		done:     make(chan struct{}),
	}
	s.jobs[r.id] = r
	return r
}

// retainLocked enrolls a terminal request in the bounded retention window.
func (s *Scheduler) retainLocked(r *request) {
	if len(s.retained) < retainMax {
		s.retained = append(s.retained, r.id)
		return
	}
	delete(s.jobs, s.retained[s.oldest])
	s.retained[s.oldest] = r.id
	s.oldest = (s.oldest + 1) % retainMax
}

// signal nudges the dispatcher without blocking.
func (s *Scheduler) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Lookup returns a snapshot of the request, if it is still retained.
func (s *Scheduler) Lookup(id string) (RequestView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.jobs[id]
	if !ok {
		return RequestView{}, false
	}
	return s.viewLocked(r), true
}

func (s *Scheduler) viewLocked(r *request) RequestView {
	v := RequestView{
		ID:       r.id,
		State:    r.state,
		Analytic: r.job.Analytic,
		Result:   r.result,
		Cached:   r.cached,
		Batch:    r.batch,
		Requeues: r.requeues,
	}
	if r.err != nil {
		v.Err = r.err.Error()
		v.ErrKind = errKindLabel(r.err)
	}
	if r.state.Terminal() {
		v.WaitedMS = r.finished.Sub(r.enqueued).Milliseconds()
	}
	return v
}

// Wait blocks until the request reaches a terminal state or ctx is done,
// returning the (possibly still non-terminal) snapshot.
func (s *Scheduler) Wait(ctx context.Context, id string) (RequestView, bool) {
	s.mu.Lock()
	r, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return RequestView{}, false
	}
	select {
	case <-r.done:
	case <-ctx.Done():
	}
	return s.Lookup(id)
}

// Stats returns the scheduler counters plus the cache's.
func (s *Scheduler) Stats() SchedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.QueueDepth = len(s.queue)
	st.Cache = s.cache.Stats()
	return st
}

// LastJobStats returns the most recent SPMD job's communication summary,
// if any job has completed.
func (s *Scheduler) LastJobStats() (JobStats, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lastJob == nil {
		return JobStats{}, false
	}
	return *s.lastJob, true
}

// Close drains the scheduler: new submissions are rejected with
// ErrShuttingDown, queued requests fail with the same error, and the call
// blocks until the dispatcher has exited. It does not close the cluster.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		started := s.started
		s.mu.Unlock()
		if started {
			<-s.idle
		}
		return
	}
	s.closed = true
	for _, r := range s.queue {
		s.finishLocked(r, StateFailed, nil, ErrShuttingDown)
	}
	s.queue = nil
	started := s.started
	s.mu.Unlock()
	s.signal()
	if started {
		<-s.idle
	} else {
		close(s.idle)
	}
}

// finishLocked moves a request to a terminal state exactly once.
func (s *Scheduler) finishLocked(r *request, st State, res *analytics.JobResult, err error) {
	if r.state.Terminal() {
		return
	}
	r.state = st
	r.result = res
	r.err = err
	r.finished = time.Now()
	switch st {
	case StateDone:
		s.stats.Done++
	case StateFailed:
		s.stats.Failed++
	case StateExpired:
		s.stats.Expired++
	}
	s.retainLocked(r)
	close(r.done)
}

// dispatch is the single job-runner loop: it pops one batch at a time and
// runs it on the cluster, so two SPMD jobs can never overlap.
func (s *Scheduler) dispatch() {
	defer close(s.idle)
	for {
		batch, ok := s.take()
		if !ok {
			return
		}
		merged := mergeBatch(batch)
		if merged.Analytic == analytics.JobMutate && merged.MutationID == 0 {
			// Assigned here — in the single-threaded dispatcher, one job at
			// a time — so batch ids ascend in application order, and a
			// requeued batch keeps its id (the replica replay watermarks
			// turn the replay into a no-op).
			merged.MutationID = s.cl.NextMutationID()
		}
		// The epoch the job runs under, captured before dispatch. complete
		// caches under this key, never under the post-run epoch: a mutation
		// or compaction racing a query's completion must not let the
		// query's pre-mutation answer be cached for the new epoch.
		epoch := s.cl.Epoch()
		mark := s.cfg.Tracer.Now()
		res, stats, err := s.cl.Run(merged)
		s.cfg.Tracer.Span(SpanServeJob, mark, int64(len(batch)))
		s.complete(batch, merged, res, stats, err, epoch)
	}
}

// take blocks until work is available, then pops the queue head plus every
// batchable sibling (same analytic, same non-source parameters, single
// source) up to BatchMax sources. Queued requests whose deadline has
// already passed are expired here — before dispatch — so an expired
// request never consumes cluster time. Returns ok=false when the
// scheduler is closed and drained.
func (s *Scheduler) take() ([]*request, bool) {
	s.mu.Lock()
	for {
		now := time.Now()
		live := s.queue[:0]
		for _, r := range s.queue {
			if !r.deadline.IsZero() && now.After(r.deadline) {
				s.finishLocked(r, StateExpired, nil, ErrDeadline)
				continue
			}
			live = append(live, r)
		}
		s.queue = live
		// Dispatch-time dedupe: a request admitted as a cache miss may
		// find its answer cached by the time it reaches the head — its
		// requeued twin re-ran during a failover, or an identical earlier
		// request completed. Peek (not Get) keeps the admission-time
		// hit/miss counters honest; DedupeHits meters this path.
		for len(s.queue) > 0 {
			head := s.queue[0]
			if head.job.Mutating() {
				break
			}
			res, ok := s.cache.Peek(cacheKey(s.cl.Epoch(), head.job))
			if !ok {
				break
			}
			head.cached = true
			s.stats.DedupeHits++
			s.finishLocked(head, StateDone, res, nil)
			s.queue = s.queue[1:]
		}
		if len(s.queue) > 0 {
			head := s.queue[0]
			batch := []*request{head}
			rest := s.queue[1:]
			if head.job.SourceRooted() && len(head.job.Sources) == 1 && s.cfg.BatchMax > 1 {
				kept := rest[:0]
				for _, r := range rest {
					if len(batch) < s.cfg.BatchMax && batchable(head.job, r.job) {
						batch = append(batch, r)
					} else {
						kept = append(kept, r)
					}
				}
				// Zero the tail so dropped queue slots don't pin requests.
				for i := len(kept); i < len(rest); i++ {
					rest[i] = nil
				}
				rest = kept
			}
			s.queue = append(s.queue[:0], rest...)
			for _, r := range batch {
				r.state = StateRunning
			}
			s.mu.Unlock()
			return batch, true
		}
		if s.closed {
			s.mu.Unlock()
			return nil, false
		}
		s.mu.Unlock()
		<-s.wake
		s.mu.Lock()
	}
}

// requeueable reports whether a job failure was a group death worth
// replaying: a typed communication failure on a cluster that is not
// terminally down. Job-level failures (encode/validate/kernel errors) and
// the terminal sentinels fail the request immediately.
func requeueable(err error) bool {
	if err == nil || errors.Is(err, ErrClusterDown) || errors.Is(err, ErrShardLost) {
		return false
	}
	var ce *comm.CommError
	return errors.As(err, &ce)
}

// batchable reports whether b can join a's multi-source run: b has one
// source, and the normalized jobs are equal apart from their sources.
func batchable(a, b *analytics.Job) bool {
	x, y := *a, *b
	x.Sources, y.Sources = nil, nil
	return len(b.Sources) == 1 && reflect.DeepEqual(x, y)
}

// mergeBatch builds the SPMD job descriptor answering every member of the
// batch: the head's parameters with the members' sources concatenated.
func mergeBatch(batch []*request) *analytics.Job {
	if len(batch) == 1 {
		return batch[0].job
	}
	merged := *batch[0].job
	merged.Sources = make([]uint32, 0, len(batch))
	for _, r := range batch {
		merged.Sources = append(merged.Sources, r.job.Sources[0])
	}
	return &merged
}

// complete distributes one finished SPMD job's outcome to the batch
// members, feeding the result cache per member under the epoch the job
// was dispatched at (mutating jobs are never cached).
func (s *Scheduler) complete(batch []*request, merged *analytics.Job, res *analytics.JobResult, stats JobStats, err error, epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if requeueable(err) && !s.closed {
			// The SPMD run died with its compute group, not because of the
			// job: put the batch members back at the head of the queue so
			// the re-formed group replays them. They keep their original
			// deadlines; take() still expires the ones that ran out of
			// time during recovery.
			var kept []*request
			for _, r := range batch {
				if r.requeues >= schedMaxRequeues {
					s.finishLocked(r, StateFailed, nil,
						fmt.Errorf("serve: giving up after %d failover requeues: %w", r.requeues, err))
					continue
				}
				r.requeues++
				r.state = StateQueued
				kept = append(kept, r)
			}
			if len(kept) > 0 {
				s.queue = append(kept, s.queue...)
				s.stats.Requeued += uint64(len(kept))
				s.cl.failover.JobsRequeued.Add(uint64(len(kept)))
				s.signal()
			}
			return
		}
		for _, r := range batch {
			r.batch = len(batch)
			s.finishLocked(r, StateFailed, nil, err)
		}
		return
	}
	s.stats.Batches++
	s.stats.Coalesced += uint64(len(batch) - 1)
	if len(batch) > s.stats.MaxBatch {
		s.stats.MaxBatch = len(batch)
	}
	s.lastJob = &stats
	for _, r := range batch {
		r.batch = len(batch)
		member := res
		if len(batch) > 1 {
			member = res.ForSource(r.job.Sources[0])
			if member == nil {
				s.finishLocked(r, StateFailed, nil, fmt.Errorf("serve: batched result missing source %d", r.job.Sources[0]))
				continue
			}
		}
		if !r.job.Mutating() {
			s.cache.Put(cacheKey(epoch, r.job), member)
		}
		s.finishLocked(r, StateDone, member, nil)
	}
}
