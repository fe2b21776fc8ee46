package comm

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// ErrInjected is the error a scheduled FaultFatal produces: a hard fault.
var ErrInjected = errors.New("comm: injected fault")

// FaultOp enumerates the failure modes a FaultSchedule can inject. Each op
// models a distinct real-world fabric pathology with deterministic,
// testable semantics:
//
//   - FaultDelay: the round is stalled for a fixed duration, then proceeds.
//     Results are always identical; only timing (and deadline interplay)
//     changes.
//   - FaultTruncate: a peer's payload arrives short (a torn frame). The
//     collectives' length validation detects it; the observing rank fails
//     with a corrupt CommError and the group aborts.
//   - FaultDuplicate: a peer's payload arrives spliced — delivered twice in
//     one frame with a torn tail, as a retransmit-merge bug would produce.
//     Detected by length validation like truncation.
//   - FaultFatal: the round fails hard (ErrInjected), modeling a dead link.
//     The group aborts.
type FaultOp uint8

const (
	FaultDelay FaultOp = iota
	FaultTruncate
	FaultDuplicate
	FaultFatal
)

var faultOpNames = [...]string{"delay", "truncate", "duplicate", "fatal"}

// String returns the op's short name.
func (op FaultOp) String() string {
	if int(op) < len(faultOpNames) {
		return faultOpNames[op]
	}
	return "invalid"
}

// Fault is one scheduled injection: at the observing rank's Round-th
// transport round, apply Op.
type Fault struct {
	// Rank is the rank that observes the fault; -1 means every rank.
	Rank int
	// Round is the 1-based logical transport round the fault fires on.
	Round uint64
	// Op selects the failure mode.
	Op FaultOp
	// Peer selects whose incoming payload is affected (Truncate and
	// Duplicate only).
	Peer int
	// Delay is the stall duration for FaultDelay.
	Delay time.Duration
}

// FaultSchedule is a reproducible fault program: a seed (provenance) plus
// the faults it expands to. Build one by hand for targeted tests or with
// RandomFaultSchedule for seeded sweeps; share one schedule across the
// group and give each rank its own ScheduledTransport.
type FaultSchedule struct {
	// Seed records how the schedule was generated (0 for hand-built).
	Seed uint64
	// Faults are the scheduled injections, in no particular order.
	Faults []Fault
}

// forRank returns the faults rank observes, keyed by round.
func (s FaultSchedule) forRank(rank int) map[uint64][]*scheduledFault {
	m := make(map[uint64][]*scheduledFault)
	for _, f := range s.Faults {
		if f.Rank != -1 && f.Rank != rank {
			continue
		}
		f := f
		m[f.Round] = append(m[f.Round], &scheduledFault{Fault: f})
	}
	return m
}

// RandomFaultSchedule derives n faults from seed for a group of the given
// size, with rounds drawn from [2, maxRound]. Delays dominate (the one op a
// group absorbs), with truncations, duplications and fatal faults mixed in
// so that a short schedule fails about as often as it completes. The same
// (seed, size, maxRound, n) always yields the same schedule.
func RandomFaultSchedule(seed uint64, size int, maxRound uint64, n int) FaultSchedule {
	if maxRound < 2 {
		maxRound = 2
	}
	s := FaultSchedule{Seed: seed}
	ctr := seed
	next := func() uint64 {
		ctr++
		return rng.Mix64(ctr)
	}
	for i := 0; i < n; i++ {
		f := Fault{
			Rank:  int(next() % uint64(size)),
			Round: 2 + next()%(maxRound-1),
		}
		switch next() % 8 {
		case 0:
			f.Op = FaultTruncate
			f.Peer = int(next() % uint64(size))
		case 1:
			f.Op = FaultDuplicate
			f.Peer = int(next() % uint64(size))
		case 2:
			f.Op = FaultFatal
		default:
			f.Op = FaultDelay
			f.Delay = time.Duration(1+next()%5) * time.Millisecond
		}
		s.Faults = append(s.Faults, f)
	}
	return s
}

// scheduledFault tracks one fault's firing state on one rank.
type scheduledFault struct {
	Fault
	fired int
}

// ScheduledTransport wraps a transport and applies a FaultSchedule to its
// rounds. Delay and Fatal fire before the wrapped round runs; Truncate and
// Duplicate mutate the received view of one peer's payload after a
// successful round; Fatal aborts the group. With an empty schedule
// it is a plain pass-through.
//
// The wrapped round is the one production runs, so fault tests exercise
// the same zero-copy path. Post-round mutations never touch the
// transport's buffers or the senders' messages, which may be a collective
// caller's own memory: affected entries are replaced with private corrupted
// copies.
type ScheduledTransport struct {
	tr     Transport
	faults map[uint64][]*scheduledFault
	round  uint64 // completed rounds

	injected atomic.Uint64 // total faults fired, for observability/tests
}

// NewScheduledTransport wraps tr with the faults s schedules for its rank.
func NewScheduledTransport(tr Transport, s FaultSchedule) *ScheduledTransport {
	return &ScheduledTransport{tr: tr, faults: s.forRank(tr.Rank())}
}

// Rank implements Transport.
func (t *ScheduledTransport) Rank() int { return t.tr.Rank() }

// Size implements Transport.
func (t *ScheduledTransport) Size() int { return t.tr.Size() }

// Close implements Transport.
func (t *ScheduledTransport) Close() error { return t.tr.Close() }

// Injected reports how many scheduled faults have fired.
func (t *ScheduledTransport) Injected() uint64 { return t.injected.Load() }

// Abort forwards to the wrapped transport when supported.
func (t *ScheduledTransport) Abort() {
	if a, ok := t.tr.(aborter); ok {
		a.Abort()
	}
}

// Exchange implements Transport, applying the schedule around round
// t.round+1.
func (t *ScheduledTransport) Exchange(out [][]byte) ([][]byte, time.Duration, error) {
	r := t.round + 1
	pending := t.faults[r]
	for _, f := range pending {
		switch f.Op {
		case FaultDelay:
			if f.fired == 0 {
				f.fired++
				t.injected.Add(1)
				time.Sleep(f.Delay)
			}
		case FaultFatal:
			if f.fired == 0 {
				f.fired++
				t.injected.Add(1)
				t.Abort()
				return nil, 0, fmt.Errorf("comm: scheduled fatal fault at round %d: %w", r, ErrInjected)
			}
		}
	}

	in, wait, err := t.tr.Exchange(out)
	t.round = r
	if err != nil {
		return nil, wait, err
	}

	for _, f := range pending {
		if f.fired > 0 || (f.Op != FaultTruncate && f.Op != FaultDuplicate) {
			continue
		}
		switch f.Op {
		case FaultTruncate:
			if f.Peer >= 0 && f.Peer < len(in) && len(in[f.Peer]) > 0 {
				f.fired++
				t.injected.Add(1)
				// A torn frame: the last byte never arrived. Replace the
				// entry with a private short copy; the transport's and
				// senders' buffers stay intact.
				m := in[f.Peer]
				cp := make([]byte, len(m)-1)
				copy(cp, m[:len(m)-1])
				in[f.Peer] = cp
			}
		case FaultDuplicate:
			if f.Peer >= 0 && f.Peer < len(in) {
				f.fired++
				t.injected.Add(1)
				// A retransmit splice: the payload delivered twice in one
				// frame plus a torn tail byte, so length validation always
				// catches it (multi-byte scalars) instead of silently
				// doubling the data.
				m := in[f.Peer]
				cp := make([]byte, 0, 2*len(m)+1)
				cp = append(cp, m...)
				cp = append(cp, m...)
				cp = append(cp, 0xFF)
				in[f.Peer] = cp
			}
		}
	}
	return in, wait, nil
}

// Release implements Transport.
func (t *ScheduledTransport) Release() (time.Duration, error) { return t.tr.Release() }
