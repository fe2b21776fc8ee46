package comm

import (
	"fmt"
	"slices"
	"testing"
)

// TestCommRetainsNoPayload pins that a collective leaves no payload on the
// communicator: after an Alltoallv, an Allgatherv and a Bcast of 1 MiB per
// peer, then the same of 4 KiB, no encode buffer holds 64 KiB and no
// message header still views caller memory where the bulk codec ships
// views, and every send slice is unchanged. The portable codec still encodes into the retained buffers;
// there only the round trips are checked.
func TestCommRetainsNoPayload(t *testing.T) {
	const size = 3
	for _, ct := range conformanceTransports() {
		for _, bulk := range codecPaths() {
			t.Run(fmt.Sprintf("%s/bulk=%v", ct.name, bulk), func(t *testing.T) {
				saved := bulkCodec
				bulkCodec = bulk
				defer func() { bulkCodec = saved }()
				ct.run(t, size, func(c *Comm) error {
					for _, perPeer := range []int{1 << 20, 4 << 10} {
						if err := retainRound(c, perPeer/8); err != nil {
							return fmt.Errorf("%d B per peer: %w", perPeer, err)
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
