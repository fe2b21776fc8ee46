// Package comm is the message-passing runtime substituting for MPI: typed
// collectives (Alltoallv, Allreduce, Allgather(v), Bcast, Barrier, scans)
// over pluggable transports.
//
// Two transports are provided. The in-process transport runs every rank as
// a goroutine in one OS process and moves messages through shared memory
// rendezvous boards; it is the default for tests, benchmarks, and the
// single-machine experiment harness. The TCP transport runs every rank as
// its own OS process in a full mesh of TCP connections, demonstrating the
// same analytics over a genuine distributed transport. Both serialize every
// message to bytes, so communication volume and synchronization structure
// are identical between the two. Every transport runs one kind of round, an
// Exchange whose messages stay borrowed until Release; ScheduledTransport
// wraps either one to inject faults into those same rounds.
//
// The programming model is SPMD exactly as with MPI: every rank executes
// the same function, collectives are called collectively (every rank must
// reach each collective in the same order), and a rank's Comm must only be
// used from that rank's goroutine.
package comm

import "time"

// Transport moves byte messages between ranks, one round at a time. A round
// is an Exchange followed by its Release, and Exchange is a synchronization
// point: no rank's Exchange returns until every rank has contributed its
// messages for that round.
//
// The round is zero-copy on both sides. Where the bulk codec holds, the
// messages a collective sends are views of its caller's memory, with no
// encode copy. The receiver reads the messages in place (the in-process
// transport hands out direct views of the senders' messages; the TCP
// transport hands out its retained receive buffers), so collectives decode
// straight into typed result storage, and that decode is the one copy a
// payload costs in process.
// Contract:
//   - The slices Exchange returns (and the header slice holding them) are
//     transport-owned and valid only until Release returns.
//   - out is borrowed by the transport for the same window: the caller
//     must not mutate any out[i] until Release returns.
//   - A transport never writes into out[i], not even after Release: the
//     collectives hand it views of their callers' memory (the send slice
//     of an Alltoallv, the values of a Bcast), so a message it must alter
//     is replaced by a private copy.
//   - Release must be called exactly once after every successful Exchange
//     (and not after a failed one); it completes the round's
//     synchronization, so skipping it deadlocks the group.
type Transport interface {
	// Rank returns this transport's rank in [0, Size()).
	Rank() int
	// Size returns the number of ranks.
	Size() int
	// Exchange sends out[i] to rank i (including out[Rank()], which is
	// delivered back to self) and returns the messages received from every
	// rank. len(out) must equal Size(). wait reports the portion of the
	// call spent blocked waiting for other ranks (idle time at the
	// synchronization point, as distinct from data-movement time).
	Exchange(out [][]byte) (in [][]byte, wait time.Duration, err error)
	// Release ends the round the last successful Exchange opened; after it
	// returns, the received views are dead and out may be reused.
	Release() (wait time.Duration, err error)
	// Close releases transport resources. After Close the transport must
	// not be used.
	Close() error
}
