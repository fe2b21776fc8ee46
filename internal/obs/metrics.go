package obs

// Collective identifies which collective a transport round belongs to, for
// per-collective attribution of calls, bytes, and wait time. The zero value
// CNone means "not inside a named collective" (rounds run through the raw
// exchange path); composite collectives (Allreduce over Allgather) keep the
// outermost name, which is the one the caller reasons about.
type Collective uint8

// Collective kinds. NumCollectives bounds the fixed per-kind arrays.
const (
	CNone Collective = iota
	CBarrier
	CAlltoallv
	CAllgather
	CAllgatherv
	CBcast
	CAllreduce
	CScan
	CMaxLoc
	NumCollectives
)

var collectiveNames = [NumCollectives]string{
	"none", "barrier", "alltoallv", "allgather", "allgatherv",
	"bcast", "allreduce", "scan", "maxloc",
}

// spanNames are the static span labels, prebuilt so emitting a collective
// span never concatenates strings on the hot path.
var collectiveSpanNames = [NumCollectives]string{
	"comm/exchange", "comm/barrier", "comm/alltoallv", "comm/allgather",
	"comm/allgatherv", "comm/bcast", "comm/allreduce", "comm/scan",
	"comm/maxloc",
}

// String returns the short collective name.
func (c Collective) String() string {
	if c >= NumCollectives {
		return "invalid"
	}
	return collectiveNames[c]
}

// SpanName returns the span label used in traces ("comm/<name>").
func (c Collective) SpanName() string {
	if c >= NumCollectives {
		return "comm/invalid"
	}
	return collectiveSpanNames[c]
}

// CollectiveStats is the cumulative per-collective breakdown of one rank's
// traffic and synchronization cost.
type CollectiveStats struct {
	// Calls counts transport rounds attributed to this collective.
	Calls uint64
	// WireBytesOut / WireBytesIn count off-rank payload bytes shipped and
	// received over the transport (self-delivery excluded, matching how
	// Stats and the paper's edge-cut accounting work).
	WireBytesOut uint64
	WireBytesIn  uint64
	// SelfBytes counts payload bytes that bypassed the transport entirely
	// via the self-message fast path — traffic the wire counters must NOT
	// include but a volume model must.
	SelfBytes uint64
	// MaxMsgBytes is the largest single off-rank message observed.
	MaxMsgBytes uint64
	// WaitNs is time blocked at the synchronization point waiting for
	// slower ranks; CommNs is the remaining in-collective time
	// (serialization and transfer). Together they partition the rounds'
	// wall time exactly as Stats.Idle and Stats.CommT do.
	WaitNs int64
	CommNs int64
}

// merge folds o into s (sums, except MaxMsgBytes which takes the max).
func (s *CollectiveStats) merge(o CollectiveStats) {
	s.Calls += o.Calls
	s.WireBytesOut += o.WireBytesOut
	s.WireBytesIn += o.WireBytesIn
	s.SelfBytes += o.SelfBytes
	if o.MaxMsgBytes > s.MaxMsgBytes {
		s.MaxMsgBytes = o.MaxMsgBytes
	}
	s.WaitNs += o.WaitNs
	s.CommNs += o.CommNs
}

// Metrics holds one rank's per-collective counters in a fixed array:
// recording is two branches and a handful of integer adds, no allocation.
// Like a Tracer, a Metrics is written by its rank's goroutine only and all
// producer methods are nil-safe, so disabled metrics cost one nil check.
type Metrics struct {
	per [NumCollectives]CollectiveStats
}

// NewMetrics returns an empty counter set.
func NewMetrics() *Metrics { return &Metrics{} }

// Add folds one round's stats into collective k. No-op on a nil receiver.
func (m *Metrics) Add(k Collective, s CollectiveStats) {
	if m == nil || k >= NumCollectives {
		return
	}
	m.per[k].merge(s)
}

// Collective returns the accumulated stats for kind k.
func (m *Metrics) Collective(k Collective) CollectiveStats {
	if m == nil || k >= NumCollectives {
		return CollectiveStats{}
	}
	return m.per[k]
}

// Total returns the stats summed over every collective kind.
func (m *Metrics) Total() CollectiveStats {
	var t CollectiveStats
	if m == nil {
		return t
	}
	for k := range m.per {
		t.merge(m.per[k])
	}
	return t
}

// Snapshot returns a copy of the per-collective array, indexed by
// Collective.
func (m *Metrics) Snapshot() [NumCollectives]CollectiveStats {
	if m == nil {
		return [NumCollectives]CollectiveStats{}
	}
	return m.per
}

// Reset zeroes all counters.
func (m *Metrics) Reset() {
	if m == nil {
		return
	}
	m.per = [NumCollectives]CollectiveStats{}
}
