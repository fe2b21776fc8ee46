package comm

import (
	"errors"
	"time"

	"repro/internal/obs"
)

// Comm is one rank's communicator: a transport plus the per-rank timing
// breakdown the paper reports in Figure 3 (computation / communication /
// idle). A Comm must be used from a single goroutine.
type Comm struct {
	tr    Transport
	stats Stats
	mark  time.Time

	// Retained collective scratch (steady-state zero allocation): outMsgs
	// is the header slice handed to the transport each round. outBufs are
	// per-destination encode buffers, used only by the portable codec and,
	// in the self slot, by the collectives of a few words (see encoded);
	// where the bulk codec holds, other payloads ship as views of the
	// caller's memory and stay here no longer than their round.
	outBufs [][]byte
	outMsgs [][]byte

	// In-flight round bookkeeping between Exchange and Release.
	xstart time.Time
	xwait  time.Duration

	// Observability hooks, both nil by default (the zero-cost-disabled
	// contract: every hot-path touch below is a nil check or a plain
	// store). trace/met receive one span / one counter update per
	// transport round, attributed to the collective named by cur; xself
	// carries the round's self-bypass byte count and xmark the span start.
	trace *obs.Tracer
	met   *obs.Metrics
	cur   obs.Collective
	xself uint64
	xmark int64
}

// Stats is the cumulative time and volume breakdown of a measured region.
// Comp is the time between collective calls (local computation), Idle is the
// time spent blocked at synchronization points waiting for slower ranks, and
// CommT is the remaining in-collective time (serialization and transfer).
type Stats struct {
	Comp  time.Duration
	CommT time.Duration
	Idle  time.Duration
	// BytesSent and BytesRecv count off-rank payload bytes only
	// (self-delivery is excluded, matching how edge-cut traffic is
	// accounted in the paper).
	BytesSent uint64
	BytesRecv uint64
	// Exchanges counts transport rounds (each collective is one or more).
	Exchanges uint64
}

// Total returns the wall time covered by the breakdown.
func (s Stats) Total() time.Duration { return s.Comp + s.CommT + s.Idle }

// New wraps a transport in a communicator and starts its measurement clock.
func New(tr Transport) *Comm {
	size := tr.Size()
	return &Comm{tr: tr, mark: time.Now(), outBufs: make([][]byte, size), outMsgs: make([][]byte, size)}
}

// Rank returns this rank's id.
func (c *Comm) Rank() int { return c.tr.Rank() }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.tr.Size() }

// Transport exposes the underlying transport (used by tests and by Close).
func (c *Comm) Transport() Transport { return c.tr }

// Close closes the underlying transport.
func (c *Comm) Close() error { return c.tr.Close() }

// SetTracer attaches a span tracer; nil (the default) disables tracing.
// Each transport round then emits one span named after its collective whose
// duration is exactly the interval the Stats breakdown attributes to
// CommT+Idle, so trace totals and TakeStats agree.
func (c *Comm) SetTracer(t *obs.Tracer) { c.trace = t }

// Tracer returns the attached tracer (nil when tracing is disabled). The
// analytics reach through this to emit their per-iteration spans; all
// tracer methods are nil-safe, so callers need no guard.
func (c *Comm) Tracer() *obs.Tracer { return c.trace }

// SetMetrics attaches per-collective counters; nil (the default) disables
// them.
func (c *Comm) SetMetrics(m *obs.Metrics) { c.met = m }

// Metrics returns the attached counter set (nil when disabled).
func (c *Comm) Metrics() *obs.Metrics { return c.met }

// enter names the collective the next transport round belongs to. The
// outermost collective wins: composites (Allreduce over Allgather) keep
// their own name because the inner call finds cur already set. settle
// clears it after attributing the round.
func (c *Comm) enter(k obs.Collective) {
	if c.cur == obs.CNone {
		c.cur = k
	}
}

// ResetStats zeroes the breakdown, restarts the computation clock, and
// resets the attached per-collective counters (when metrics are enabled),
// so Stats and obs counters always describe the same measured region. Call
// at the start of a measured region — e.g. the first PageRank iteration, or
// each job admitted to a resident serving cluster, where without the reset
// per-job metrics would accumulate across queries.
func (c *Comm) ResetStats() {
	c.stats = Stats{}
	c.mark = time.Now()
	c.met.Reset()
}

// TakeStats closes out the current computation interval and returns the
// accumulated breakdown.
func (c *Comm) TakeStats() Stats {
	now := time.Now()
	c.stats.Comp += now.Sub(c.mark)
	c.mark = now
	return c.stats
}

// sendBuffers returns the retained message-header slice, cleared.
// Collectives point the header at each slot's message (see wire, broadcast
// and encoded); slots left nil send nothing.
func (c *Comm) sendBuffers() [][]byte {
	clear(c.outMsgs)
	return c.outMsgs
}

// beginExchange opens one transport round, attributing time since the last
// collective to Comp. The returned messages are borrowed: the caller must
// finish reading them, then call endExchange (with the same out and in)
// exactly once. On error the round is already closed out and endExchange
// must not be called. Every failure surfaces as a rank-attributed
// *CommError.
func (c *Comm) beginExchange(out [][]byte) ([][]byte, error) {
	start := time.Now()
	c.stats.Comp += start.Sub(c.mark)
	c.xstart = start
	if c.trace != nil {
		c.xmark = c.trace.Now()
	}

	in, wait, err := c.tr.Exchange(out)
	c.xwait = wait
	if err != nil {
		c.settle(nil, nil)
		return nil, c.wrapErr(err)
	}
	return in, nil
}

// endExchange completes the round opened by beginExchange: it releases
// borrowed buffers (running the closing synchronization) and folds timing
// and volume into the breakdown. A released round also drops its message
// headers, which may view the caller's memory, so none of it stays
// reachable from the Comm. A failed Release leaves them: a peer of an
// aborted round may still be reading them.
func (c *Comm) endExchange(out, in [][]byte) error {
	w, err := c.tr.Release()
	c.xwait += w
	if err != nil {
		c.settle(nil, nil)
		return c.wrapErr(err)
	}
	c.settle(out, in)
	clear(c.outMsgs)
	return nil
}

// wrapErr promotes err to a rank-attributed *CommError, leaving an existing
// CommError intact.
func (c *Comm) wrapErr(err error) error {
	if err == nil {
		return nil
	}
	var ce *CommError
	if errors.As(err, &ce) {
		return err
	}
	return &CommError{Rank: c.Rank(), Peer: -1, Kind: Classify(err), Err: err}
}

// settle closes out the in-flight round's timing, and (on success, when out
// and in are the round's messages) its off-rank byte volume. When tracing
// or metrics are attached it also emits the round's span and counters; the
// span reuses the very interval folded into CommT+Idle, so trace and Stats
// totals are identical by construction.
func (c *Comm) settle(out, in [][]byte) {
	end := time.Now()
	elapsed := end.Sub(c.xstart)
	wait := c.xwait
	if wait > elapsed {
		wait = elapsed
	}
	c.stats.Idle += wait
	c.stats.CommT += elapsed - wait
	c.stats.Exchanges++
	c.mark = end
	c.xwait = 0
	self := c.Rank()
	var sent, recvd uint64
	for i, m := range out {
		if i != self {
			sent += uint64(len(m))
		}
	}
	for i, m := range in {
		if i != self {
			recvd += uint64(len(m))
		}
	}
	c.stats.BytesSent += sent
	c.stats.BytesRecv += recvd
	if c.trace != nil || c.met != nil {
		c.observe(out, elapsed, wait, sent, recvd)
	}
	c.cur = obs.CNone
	c.xself = 0
}

// observe reports one settled round to the attached tracer and counters.
// Off the hot path: runs only when observability is enabled.
func (c *Comm) observe(out [][]byte, elapsed, wait time.Duration, sent, recvd uint64) {
	if c.met != nil {
		var maxMsg uint64
		self := c.Rank()
		for i, m := range out {
			if i != self && uint64(len(m)) > maxMsg {
				maxMsg = uint64(len(m))
			}
		}
		c.met.Add(c.cur, obs.CollectiveStats{
			Calls:        1,
			WireBytesOut: sent,
			WireBytesIn:  recvd,
			SelfBytes:    c.xself,
			MaxMsgBytes:  maxMsg,
			WaitNs:       wait.Nanoseconds(),
			CommNs:       (elapsed - wait).Nanoseconds(),
		})
	}
	if c.trace != nil {
		c.trace.Emit(c.cur.SpanName(), c.xmark, elapsed.Nanoseconds(), int64(sent))
	}
}

// Barrier blocks until every rank has called Barrier.
func (c *Comm) Barrier() error {
	c.enter(obs.CBarrier)
	out := c.sendBuffers()
	in, err := c.beginExchange(out)
	if err != nil {
		return err
	}
	return c.endExchange(out, in)
}
