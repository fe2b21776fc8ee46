package comm

import (
	"fmt"
	"slices"
	"testing"
)

// TestCommRetainsNoPayload pins that a collective leaves no payload on the
// communicator: after an Alltoallv, an Allgatherv and a Bcast of 1 MiB per
// peer, then retainIdleFrames rounds of the same of 4 KiB, no TCP receive
// buffer holds 64 KiB, no encode buffer holds 64 KiB and no message header
// still views caller memory where the bulk codec ships views, and every
// send slice is unchanged. The portable codec still encodes into the
// retained buffers; there only the round trips and the receive buffers are
// checked.
func TestCommRetainsNoPayload(t *testing.T) {
	const size = 3
	for _, ct := range conformanceTransports() {
		for _, bulk := range codecPaths() {
			t.Run(fmt.Sprintf("%s/bulk=%v", ct.name, bulk), func(t *testing.T) {
				saved := bulkCodec
				bulkCodec = bulk
				defer func() { bulkCodec = saved }()
				ct.run(t, size, func(c *Comm) error {
					if err := retainRound(c, (1<<20)/8); err != nil {
						return fmt.Errorf("1 MiB per peer: %w", err)
					}
					for range retainIdleFrames {
						if err := retainRound(c, (4<<10)/8); err != nil {
							return fmt.Errorf("4 KiB per peer: %w", err)
						}
					}
					if tcp, ok := c.tr.(*TCPTransport); ok {
						for r, b := range tcp.inBufs {
							if cap(b) >= 64<<10 {
								return fmt.Errorf("inBufs[%d] retains %d B", r, cap(b))
							}
						}
					}
					if !bulk {
						return nil
					}
					for r, b := range c.outBufs {
						if cap(b) >= 64<<10 {
							return fmt.Errorf("outBufs[%d] retains %d B", r, cap(b))
						}
					}
					for r, m := range c.outMsgs {
						if m != nil {
							return fmt.Errorf("outMsgs[%d] still views %d B", r, len(m))
						}
					}
					return nil
				})
			})
		}
	}
}

// retainRound runs one Alltoallv, Allgatherv and Bcast of n words per peer
// and checks every result and that no send slice changed.
func retainRound(c *Comm, n int) error {
	size, self := c.Size(), c.Rank()
	word := func(from, i int) uint64 { return uint64(from)<<40 | uint64(i) }
	send := make([]uint64, n*size)
	for i := range send {
		send[i] = word(self, i)
	}
	kept := slices.Clone(send)
	counts := make([]int, size)
	for r := range counts {
		counts[r] = n
	}
	recv, _, err := Alltoallv(c, send, counts)
	if err != nil {
		return err
	}
	for s := range size {
		for k := range n {
			if got, want := recv[s*n+k], word(s, self*n+k); got != want {
				return fmt.Errorf("Alltoallv word %d from rank %d = %#x, want %#x", k, s, got, want)
			}
		}
	}
	mine := send[:n]
	all, _, err := Allgatherv(c, mine)
	if err != nil {
		return err
	}
	for s := range size {
		for k := range n {
			if got, want := all[s*n+k], word(s, k); got != want {
				return fmt.Errorf("Allgatherv word %d from rank %d = %#x, want %#x", k, s, got, want)
			}
		}
	}
	got, err := Bcast(c, mine, 0)
	if err != nil {
		return err
	}
	for k, v := range got {
		if want := word(0, k); v != want {
			return fmt.Errorf("Bcast word %d = %#x, want %#x", k, v, want)
		}
	}
	if !slices.Equal(send, kept) {
		return fmt.Errorf("a collective changed its send slice")
	}
	return nil
}

// TestTCPKeepsBufferAcrossSmallRounds pins that the small collectives a
// kernel runs between its large rounds (a BFS level's frontier exchange and
// Allreduces) do not cost the large rounds their receive buffer: after the
// first 1 MiB Alltoallv over TCP, no later one allocates a new buffer.
func TestTCPKeepsBufferAcrossSmallRounds(t *testing.T) {
	const size, n = 3, (1 << 20) / 8
	runTCPGroup(t, size, func(c *Comm) error {
		tcp := c.tr.(*TCPTransport)
		send := make([]uint64, n*size)
		counts := make([]int, size)
		for r := range counts {
			counts[r] = n
		}
		bufs := make([]*byte, size)
		for round := range 2 * retainIdleFrames {
			if _, _, err := Alltoallv(c, send, counts); err != nil {
				return err
			}
			for p, b := range tcp.inBufs {
				if p == c.Rank() {
					continue
				}
				if round == 0 {
					bufs[p] = &b[:1][0]
				} else if &b[:1][0] != bufs[p] {
					return fmt.Errorf("round %d: a new receive buffer for peer %d", round, p)
				}
			}
			for range 4 {
				if _, err := Allreduce(c, uint64(round), OpSum); err != nil {
					return err
				}
			}
		}
		return nil
	})
}
