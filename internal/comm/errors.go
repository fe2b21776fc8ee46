package comm

import (
	"errors"
	"fmt"
	"net"
	"os"
)

// ErrKind classifies a communication failure for reporting and recovery.
// No kind is retried at the round level: a failed round either left the
// group in an indeterminate state (timeout), proved the data wrong
// (corrupt), or condemned the whole group (aborted/fatal). Recovery is
// replica failover or a fresh mesh resumed from a checkpoint.
type ErrKind uint8

const (
	// KindUnknown is the zero value; treated as fatal.
	KindUnknown ErrKind = iota
	// KindTimeout is an expired read/write deadline mid-round. The round
	// state is indeterminate (peers may have consumed our frames); recovery
	// means rebuilding the transport and resuming from a checkpoint.
	KindTimeout
	// KindCorrupt is a payload that failed validation (ragged length,
	// truncated or spliced frame). The data is wrong.
	KindCorrupt
	// KindAborted means another rank aborted the group; this rank is a
	// bystander of someone else's failure.
	KindAborted
	// KindFatal is every other failure (protocol errors, closed
	// connections, injected hard faults).
	KindFatal
)

var errKindNames = [...]string{
	"unknown", "timeout", "corrupt", "aborted", "fatal",
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
// whole round failed), and how the failure classifies. It wraps the
// underlying cause, so errors.Is/As see through it.
type CommError struct {
	// Rank is the rank that observed the failure.
	Rank int
	// Peer is the peer whose message or link was implicated, or -1 when
	// the failure concerns the whole round.
	Peer int
	// Kind classifies the failure.
	Kind ErrKind
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *CommError) Error() string {
	if e.Peer >= 0 {
		return fmt.Sprintf("comm: rank %d peer %d %s: %v", e.Rank, e.Peer, e.Kind, e.Err)
	}
	return fmt.Sprintf("comm: rank %d %s: %v", e.Rank, e.Kind, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *CommError) Unwrap() error { return e.Err }

// Classify maps an error to its kind. An error already carrying a
// CommError keeps its classification; otherwise group aborts and net
// timeouts are recognized and the rest is fatal.
func Classify(err error) ErrKind {
	if err == nil {
		return KindUnknown
	}
	var ce *CommError
	if errors.As(err, &ce) {
		return ce.Kind
	}
	switch {
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
