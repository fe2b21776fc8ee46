package comm

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// ErrInjected is the error a scheduled FaultFatal produces: a hard fault,
// not retryable.
var ErrInjected = errors.New("comm: injected fault")

// FaultOp enumerates the failure modes a FaultSchedule can inject. Each op
// models a distinct real-world fabric pathology with deterministic,
// testable semantics:
//
//   - FaultDrop: the round fails before any peer could observe it (a NIC
//     send that never left the host). Transient — a retrying Comm
//     re-attempts the round and, once the fault clears, completes it with
//     results identical to a fault-free run.
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
//     Not retryable; the group aborts.
type FaultOp uint8

const (
	FaultDrop FaultOp = iota
	FaultDelay
	FaultTruncate
	FaultDuplicate
	FaultFatal
)

var faultOpNames = [...]string{"drop", "delay", "truncate", "duplicate", "fatal"}

// String returns the op's short name.
func (op FaultOp) String() string {
	if int(op) < len(faultOpNames) {
		return faultOpNames[op]
	}
	return "invalid"
}

// Fault is one scheduled injection: at the observing rank's Round-th
// logical transport round, apply Op. Rounds are logical, not attempts: a
// dropped round keeps its number across retries, so schedules stay aligned
// with the SPMD round structure regardless of the retry policy.
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
	// Times is how many consecutive attempts a Drop fails before letting
	// the round through; values below 1 mean 1. A Times at or above the
	// retry policy's MaxAttempts makes the drop effectively fatal.
	Times int
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
		if f.Times < 1 {
			f.Times = 1
		}
		m[f.Round] = append(m[f.Round], &scheduledFault{Fault: f})
	}
	return m
}

// PartitionFaults models a network partition healing after `times`
// attempts: every rank in ranks observes a drop at the given round that
// fails `times` consecutive attempts. With a retry policy whose MaxAttempts
// exceeds times, the partition heals and the run completes identically;
// otherwise it is fatal on every partitioned rank.
func PartitionFaults(ranks []int, round uint64, times int) []Fault {
	out := make([]Fault, 0, len(ranks))
	for _, r := range ranks {
		out = append(out, Fault{Rank: r, Round: round, Op: FaultDrop, Times: times})
	}
	return out
}

// RandomFaultSchedule derives n faults from seed for a group of the given
// size, with rounds drawn from [2, maxRound]. Drops dominate (they are the
// recoverable case the retry layer exists for), with delays, truncations,
// duplications, and the occasional multi-attempt drop mixed in. The same
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
			f.Op = FaultDelay
			f.Delay = time.Duration(1+next()%5) * time.Millisecond
		case 1:
			f.Op = FaultTruncate
			f.Peer = int(next() % uint64(size))
		case 2:
			f.Op = FaultDuplicate
			f.Peer = int(next() % uint64(size))
		case 3:
			f.Op = FaultDrop
			f.Times = 2
		default:
			f.Op = FaultDrop
			f.Times = 1
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
// rounds. Drop and Delay fire before the wrapped round runs (drops do not
// consume it, so a retrying Comm re-attempts the same logical round);
// Truncate and Duplicate mutate the received view of one peer's payload
// after a successful round; Fatal aborts the group. With an empty schedule
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
	round  uint64 // completed logical rounds

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

// Exchange implements Transport, applying the schedule around one attempt
// at logical round t.round+1. The round counter advances only once the
// wrapped transport actually runs the round, so a dropped attempt and its
// retries share a round number.
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
		case FaultDrop:
			if f.fired < f.Times {
				f.fired++
				t.injected.Add(1)
				return nil, 0, fmt.Errorf("comm: scheduled drop at round %d (attempt %d of %d): %w",
					r, f.fired, f.Times, ErrTransient)
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
