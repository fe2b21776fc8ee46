package comm

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// arrivals reports how many ranks wait at the world's current barrier.
func (w *localWorld) arrivals() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.count
}

// TestLocalBarrierAbortWakesWaiters strands p-1 ranks at a barrier the last
// rank never reaches and aborts the group, once while the waiters are still
// inside the spin window and once after they have parked. Every waiter must
// return ErrAborted, and promptly.
func TestLocalBarrierAbortWakesWaiters(t *testing.T) {
	for _, tc := range []struct {
		name  string
		delay time.Duration // from the last waiter's arrival to Abort
	}{
		{"spinning", 0},
		{"parked", 20 * spinWindow},
	} {
		for _, p := range []int{2, 3, 8} {
			t.Run(fmt.Sprintf("%s/p=%d", tc.name, p), func(t *testing.T) {
				trs := NewLocalGroup(p)
				errs := make(chan error, p-1)
				for r := 1; r < p; r++ {
					go func(tr *LocalTransport) {
						_, err := tr.Release()
						errs <- err
					}(trs[r])
				}
				for trs[0].w.arrivals() < p-1 {
					time.Sleep(10 * time.Microsecond)
				}
				time.Sleep(tc.delay)
				trs[0].Abort()
				aborted := time.Now()
				for r := 1; r < p; r++ {
					select {
					case err := <-errs:
						if !errors.Is(err, ErrAborted) {
							t.Fatalf("waiter returned %v, want ErrAborted", err)
						}
					case <-time.After(5 * time.Second):
						t.Fatalf("%d of %d waiters still blocked 5 s after Abort", p-r, p-1)
					}
				}
				t.Logf("all %d waiters out %v after Abort", p-1, time.Since(aborted))
			})
		}
	}
}

// TestLocalBarrierFailsFastOnceAborted: after Abort, a rank entering a
// barrier fails at once, alone — it neither counts as an arrival nor waits
// for peers that will never come.
func TestLocalBarrierFailsFastOnceAborted(t *testing.T) {
	trs := NewLocalGroup(3)
	trs[2].Abort()
	done := make(chan error, 1)
	go func() {
		if _, err := trs[0].Release(); !errors.Is(err, ErrAborted) {
			done <- fmt.Errorf("Release on an aborted group returned %v", err)
			return
		}
		out := make([][]byte, 3)
		if _, _, err := trs[1].Exchange(out); !errors.Is(err, ErrAborted) {
			done <- fmt.Errorf("Exchange on an aborted group returned %v", err)
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("barrier on an aborted group blocked")
	}
	if n := trs[0].w.arrivals(); n != 0 {
		t.Fatalf("aborted barriers counted %d arrivals", n)
	}
}

// TestLocalAlltoallvStress runs 10,000 rounds per group size, more ranks
// than cores included. Even rounds go through AlltoallvInto, whose retained
// send buffers are rewritten the moment Release returns; odd rounds check
// the borrowed views of a raw Exchange in place, before Release. A rank
// leaving a barrier before its peers finished reading shows up as a wrong
// value here and as a race under -race.
func TestLocalAlltoallvStress(t *testing.T) {
	const rounds = 10000
	for _, p := range []int{2, 3, 8} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			err := RunLocal(p, func(c *Comm) error {
				me := c.Rank()
				word := func(round, src, dst, k int) uint32 {
					return uint32(round)<<12 ^ uint32(src)<<8 ^ uint32(dst)<<4 ^ uint32(k)
				}
				size := func(round, src, dst int) int { return (round + src + 2*dst) % 5 }
				counts := make([]int, p)
				var send, recv []uint32
				var recvCounts []int
				raw := make([][]byte, p)
				for round := 0; round < rounds; round++ {
					if round%2 == 1 {
						for d := range raw {
							raw[d] = raw[d][:0]
							for k := 0; k < size(round, me, d); k++ {
								raw[d] = append(raw[d], byte(word(round, me, d, k)))
							}
						}
						in, _, err := c.Transport().Exchange(raw)
						if err != nil {
							return err
						}
						for s, v := range in {
							if len(v) != size(round, s, me) {
								return fmt.Errorf("round %d: view from %d has %d bytes, want %d", round, s, len(v), size(round, s, me))
							}
							for k, b := range v {
								if want := byte(word(round, s, me, k)); b != want {
									return fmt.Errorf("round %d: view from %d byte %d = %#x, want %#x", round, s, k, b, want)
								}
							}
						}
						if _, err := c.Transport().Release(); err != nil {
							return err
						}
						continue
					}
					send = send[:0]
					for d := range counts {
						counts[d] = size(round, me, d)
						for k := 0; k < counts[d]; k++ {
							send = append(send, word(round, me, d, k))
						}
					}
					var err error
					recv, recvCounts, err = AlltoallvInto(c, send, counts, recv, recvCounts)
					if err != nil {
						return err
					}
					off := 0
					for s, n := range recvCounts {
						if n != size(round, s, me) {
							return fmt.Errorf("round %d: %d values from %d, want %d", round, n, s, size(round, s, me))
						}
						for k := 0; k < n; k++ {
							if got, want := recv[off+k], word(round, s, me, k); got != want {
								return fmt.Errorf("round %d: value %d from %d = %#x, want %#x", round, k, s, got, want)
							}
						}
						off += n
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
