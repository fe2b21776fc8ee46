package comm

import "testing"

func TestBitSegmentOffsets(t *testing.T) {
	offs, total := BitSegmentOffsets([]int{0, 1, 64, 65, 130})
	want := []int{0, 0, 1, 2, 4}
	for i, o := range offs {
		if o != want[i] {
			t.Fatalf("offs[%d] = %d, want %d", i, o, want[i])
		}
	}
	if total != 7 {
		t.Fatalf("total = %d, want 7", total)
	}
}

// TestAlltoallvBits exercises the dense exchange end to end on the inproc
// transport: every rank ships a distinct bit pattern to every destination
// and checks the received segments bit for bit, across universe sizes that
// straddle word boundaries.
func TestAlltoallvBits(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		// bits[s][d] is the universe size of the s→d retained queue; made
		// asymmetric and word-unaligned on purpose.
		bitsFor := func(s, d int) int { return 17*s + 41*d + 3 }
		member := func(s, d, i int) bool { return (i+s+3*d)%3 == 0 }
		err := RunLocal(p, func(c *Comm) error {
			self := c.Rank()
			sendBits := make([]int, p)
			for d := 0; d < p; d++ {
				sendBits[d] = bitsFor(self, d)
			}
			offs, totalWords := BitSegmentOffsets(sendBits)
			words := make([]uint64, totalWords)
			for d := 0; d < p; d++ {
				seg := words[offs[d]:]
				for i := 0; i < sendBits[d]; i++ {
					if member(self, d, i) {
						seg[i>>6] |= 1 << (i & 63)
					}
				}
			}
			expectBits := make([]int, p)
			for s := 0; s < p; s++ {
				expectBits[s] = bitsFor(s, self)
			}
			var sc BitsScratch
			for round := 0; round < 3; round++ { // reuse the scratch
				recv, recvOffs, err := AlltoallvBits(c, words, sendBits, expectBits, &sc)
				if err != nil {
					return err
				}
				for s := 0; s < p; s++ {
					seg := recv[recvOffs[s]:]
					for i := 0; i < expectBits[s]; i++ {
						got := seg[i>>6]&(1<<(i&63)) != 0
						if got != member(s, self, i) {
							t.Errorf("p=%d rank %d: bit %d from rank %d = %v, want %v", p, self, i, s, got, member(s, self, i))
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
