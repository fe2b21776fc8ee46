package comm

import (
	"errors"
	"fmt"
	"net"
	"os"
)

// ErrTransient marks a failure that did not consume the transport round:
// the exchange may be re-attempted and, if the fault has cleared, completes
// with the peers none the wiser (they simply wait longer at the rendezvous).
// Only the fault injector (ScheduledTransport) emits it, to signal "retry
// me"; neither the in-process nor the TCP transport does, and Classify maps
// a net timeout to KindTimeout, so RetryPolicy never fires on them.
var ErrTransient = errors.New("comm: transient fault")

// ErrKind classifies a communication failure for retry and reporting
// decisions. Only KindTransient is safe to retry: every other kind either
// left the round in an indeterminate state (timeout), proved the data wrong
// (corrupt), or condemned the whole group (aborted/fatal).
type ErrKind uint8

const (
	// KindUnknown is the zero value; treated as fatal.
	KindUnknown ErrKind = iota
	// KindTransient is a pre-commit failure: the round was not consumed
	// and a retry is safe and meaningful.
	KindTransient
	// KindTimeout is an expired read/write deadline mid-round. The round
	// state is indeterminate (peers may have consumed our frames), so it is
	// NOT retryable at the round level; recovery means rebuilding the
	// transport and resuming from a checkpoint.
	KindTimeout
	// KindCorrupt is a payload that failed validation (ragged length,
	// truncated or spliced frame). The data is wrong; retrying the round
	// cannot help.
	KindCorrupt
	// KindAborted means another rank aborted the group; this rank is a
	// bystander of someone else's failure.
	KindAborted
	// KindFatal is every other failure (protocol errors, closed
	// connections, injected hard faults).
	KindFatal
)

var errKindNames = [...]string{
	"unknown", "transient", "timeout", "corrupt", "aborted", "fatal",
}

// String returns the kind's short name.
func (k ErrKind) String() string {
	if int(k) < len(errKindNames) {
		return errKindNames[k]
	}
	return "invalid"
}

// CommError is the typed, rank-attributed failure every collective returns:
// which rank observed it, which peer's traffic was implicated (-1 when the
// whole round failed), how the failure classifies, and how many attempts
// the retry policy spent before giving up. It wraps the underlying cause,
// so errors.Is/As see through it.
type CommError struct {
	// Rank is the rank that observed the failure.
	Rank int
	// Peer is the peer whose message or link was implicated, or -1 when
	// the failure concerns the whole round.
	Peer int
	// Kind classifies the failure; CommError.Retryable derives from it.
	Kind ErrKind
	// Attempt is the 1-based attempt on which the collective gave up
	// (equal to the policy's MaxAttempts when retries were exhausted).
	Attempt int
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *CommError) Error() string {
	if e.Peer >= 0 {
		return fmt.Sprintf("comm: rank %d peer %d %s (attempt %d): %v", e.Rank, e.Peer, e.Kind, e.Attempt, e.Err)
	}
	return fmt.Sprintf("comm: rank %d %s (attempt %d): %v", e.Rank, e.Kind, e.Attempt, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *CommError) Unwrap() error { return e.Err }

// Retryable reports whether re-attempting the round could succeed.
func (e *CommError) Retryable() bool { return e.Kind == KindTransient }

// Classify maps an error to its kind. An error already carrying a
// CommError keeps its classification; otherwise the transient sentinel,
// group aborts, and net timeouts are recognized and the rest is fatal.
func Classify(err error) ErrKind {
	if err == nil {
		return KindUnknown
	}
	var ce *CommError
	if errors.As(err, &ce) {
		return ce.Kind
	}
	switch {
	case errors.Is(err, ErrTransient):
		return KindTransient
	case errors.Is(err, ErrAborted):
		return KindAborted
	case errors.Is(err, os.ErrDeadlineExceeded):
		return KindTimeout
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return KindTimeout
	}
	return KindFatal
}

// Retryable reports whether err classifies as safely re-attemptable.
func Retryable(err error) bool { return Classify(err) == KindTransient }
