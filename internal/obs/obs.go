// Package obs is the per-rank observability subsystem: a low-overhead
// span/event tracer plus per-collective counters, with exporters for the
// Chrome trace_event JSON format and a plain-text per-phase table, and
// opt-in pprof/runtime-metrics hooks for the binaries.
//
// The design contract is zero cost when disabled: every producer-side
// method is safe on a nil receiver and returns immediately, so code under
// instrumentation carries only a nil check on its hot path and performs no
// allocation whether tracing is on or off. Each rank owns one Tracer and
// writes it from its own goroutine (the same confinement rule as its Comm);
// a TraceSet groups the per-rank tracers of an in-process group under one
// shared epoch so their timelines align in the exported trace.
//
// Events land in a fixed-capacity ring buffer, overwriting the oldest once
// full (Dropped reports how many were lost). Emitting is a slot store plus
// an atomic store of the event count — no locks, no allocation — which
// keeps the tracer cheap enough to wrap every collective call and every
// analytic iteration.
package obs

import (
	"sync/atomic"
	"time"
)

// DefaultCapacity is the per-rank ring size used when a non-positive
// capacity is requested: 64 Ki events (~3 MiB) holds several full
// experiment runs at laptop scale.
const DefaultCapacity = 1 << 16

// Event is one completed span in a rank's timeline. Name must be a
// long-lived string (producers use constants) so recording it is a pointer
// copy, never an allocation.
type Event struct {
	// Name identifies the span ("comm/alltoallv", "pagerank/iter", ...).
	Name string
	// Start is nanoseconds since the tracer's epoch.
	Start int64
	// Dur is the span length in nanoseconds.
	Dur int64
	// Arg is a producer-defined payload (iteration index, frontier size,
	// wire bytes) surfaced in the exported trace's args.
	Arg int64
}

// Tracer records one rank's spans into a preallocated ring. All producer
// methods are nil-safe no-ops, so a disabled tracer is a nil pointer and
// costs one branch per call site. A Tracer is written and reset by its
// owning rank's goroutine only, and Events reads it from that goroutine or
// once its writes have quiesced; Len and Dropped may be called from any
// goroutine at any time.
type Tracer struct {
	rank  int
	epoch time.Time
	buf   []Event
	// n counts the events ever emitted. Only the owner writes it (a load,
	// then a store), so the atomic is there for Len and Dropped alone.
	n atomic.Uint64
}

// NewTracer returns a tracer for the given rank whose timestamps count from
// epoch. capacity <= 0 selects DefaultCapacity.
func NewTracer(rank, capacity int, epoch time.Time) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{rank: rank, epoch: epoch, buf: make([]Event, capacity)}
}

// Rank returns the rank id this tracer records for.
func (t *Tracer) Rank() int {
	if t == nil {
		return -1
	}
	return t.rank
}

// Now returns the current time in nanoseconds since the tracer's epoch, the
// mark passed back to Span/Emit. Returns 0 on a nil tracer.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// Span records a completed span that started at mark (a prior Now result)
// and ends now. No-op on a nil tracer.
func (t *Tracer) Span(name string, mark, arg int64) {
	if t == nil {
		return
	}
	t.emit(name, mark, int64(time.Since(t.epoch))-mark, arg)
}

// Emit records a completed span with an explicit duration, for producers
// that already measured the interval themselves (the communicator reuses
// its stats-clock measurement so span totals and Stats totals agree
// exactly). No-op on a nil tracer.
func (t *Tracer) Emit(name string, start, dur, arg int64) {
	if t == nil {
		return
	}
	t.emit(name, start, dur, arg)
}

func (t *Tracer) emit(name string, start, dur, arg int64) {
	n := t.n.Load()
	t.buf[int(n%uint64(len(t.buf)))] = Event{Name: name, Start: start, Dur: dur, Arg: arg}
	t.n.Store(n + 1)
}

// Len reports how many events are currently held (at most the capacity).
// Safe to call from any goroutine.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return int(min(t.n.Load(), uint64(len(t.buf))))
}

// Dropped reports how many events were overwritten after the ring filled.
// Safe to call from any goroutine.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	if n, c := t.n.Load(), uint64(len(t.buf)); n > c {
		return n - c
	}
	return 0
}

// Events returns the retained events oldest-first. The slice is a copy; the
// tracer keeps recording into its ring. Call it from the owning goroutine,
// or from another once the owner's writes have quiesced.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	n, c := t.n.Load(), uint64(len(t.buf))
	if n <= c {
		out := make([]Event, n)
		copy(out, t.buf[:n])
		return out
	}
	out := make([]Event, c)
	idx := int(n % c)
	copy(out, t.buf[idx:])
	copy(out[int(c)-idx:], t.buf[:idx])
	return out
}

// Reset discards all recorded events (the ring storage is retained).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.n.Store(0)
}

// TraceSet groups the per-rank tracers of one in-process group under a
// shared epoch, so rank timelines align in the merged export. A nil
// TraceSet hands out nil tracers, making the whole subsystem opt-in with
// one pointer. Ensure must be called from a single goroutine (before the
// rank goroutines start); Rank is then read-only and safe concurrently.
type TraceSet struct {
	epoch    time.Time
	capacity int
	tracers  []*Tracer
}

// NewTraceSet creates an empty set whose tracers use the given per-rank
// ring capacity (<= 0 selects DefaultCapacity) and whose epoch is now.
func NewTraceSet(capacity int) *TraceSet {
	return &TraceSet{epoch: time.Now(), capacity: capacity}
}

// Ensure grows the set to cover ranks [0, n). Existing tracers (and their
// recorded events) are retained, so sequential runs over growing group
// sizes accumulate into one timeline.
func (s *TraceSet) Ensure(n int) {
	if s == nil {
		return
	}
	for r := len(s.tracers); r < n; r++ {
		s.tracers = append(s.tracers, NewTracer(r, s.capacity, s.epoch))
	}
}

// Rank returns rank r's tracer, or nil on a nil set or uncovered rank.
func (s *TraceSet) Rank(r int) *Tracer {
	if s == nil || r < 0 || r >= len(s.tracers) {
		return nil
	}
	return s.tracers[r]
}

// Tracers returns the per-rank tracers, indexed by rank.
func (s *TraceSet) Tracers() []*Tracer {
	if s == nil {
		return nil
	}
	return s.tracers
}
