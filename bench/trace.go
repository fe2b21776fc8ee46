package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around one of its
// own calls into a layer. Spans of one operation share Op; Parent is the
// span that caused this one (0 for a root).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Op      int64  `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays a nil check per call site and no more.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// from and to bound the timed section (ns since epoch); the
	// workload-derived rows only count spans that started inside it, so
	// warm-up and set-up requests do not dilute them.
	from, to int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(parent, op int64, name string) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNS: now})
	t.mu.Unlock()
	return id
}

// end closes the span start returned.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, fn func() error) error {
	id := t.start(0, 0, name)
	err := fn()
	t.end(id)
	return err
}

// now is the current trace clock (0 on a nil tracer).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch).Nanoseconds()
}

// durationsMS returns the duration of every closed span with the given
// name, in milliseconds, in recording order. With timedOnly, spans that
// started outside the timed section are skipped.
func (t *tracer) durationsMS(name string, timedOnly bool) []float64 {
	return t.collect(name, timedOnly, false)
}

// selfMS is durationsMS minus the time each span's direct children cover —
// the layer's own time.
func (t *tracer) selfMS(name string, timedOnly bool) []float64 {
	return t.collect(name, timedOnly, true)
}

func (t *tracer) collect(name string, timedOnly, self bool) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int64]int64)
	if self {
		for _, s := range t.spans {
			if s.Parent != 0 && s.EndNS > 0 {
				child[s.Parent] += s.EndNS - s.StartNS
			}
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name != name || s.EndNS == 0 {
			continue
		}
		if timedOnly && (s.StartNS < t.from || s.StartNS > t.to) {
			continue
		}
		out = append(out, float64(s.EndNS-s.StartNS-child[s.ID])/1e6)
	}
	return out
}

// write dumps every span to path as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
