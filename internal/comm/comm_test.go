package comm

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// groupSizes are the rank counts every collective test runs at.
var groupSizes = []int{1, 2, 3, 4, 8}

func runAll(t *testing.T, fn func(c *Comm) error) {
	t.Helper()
	for _, p := range groupSizes {
		p := p
		t.Run(fmt.Sprintf("ranks=%d", p), func(t *testing.T) {
			if err := RunLocal(p, fn); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBarrier(t *testing.T) {
	runAll(t, func(c *Comm) error {
		for i := 0; i < 10; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestAlltoallvRoundTrip(t *testing.T) {
	// Rank r sends the values r*1000 + d*10 + k (k < r+d elements) to each
	// destination d; every receiver checks exactly what arrived.
	runAll(t, func(c *Comm) error {
		size := c.Size()
		r := c.Rank()
		var send []uint32
		counts := make([]int, size)
		for d := 0; d < size; d++ {
			n := r + d
			counts[d] = n
			for k := 0; k < n; k++ {
				send = append(send, uint32(r*1000+d*10+k))
			}
		}
		recv, recvCounts, err := Alltoallv(c, send, counts)
		if err != nil {
			return err
		}
		pos := 0
		for s := 0; s < size; s++ {
			want := s + r
			if recvCounts[s] != want {
				return fmt.Errorf("rank %d: recvCounts[%d] = %d, want %d", r, s, recvCounts[s], want)
			}
			for k := 0; k < want; k++ {
				if got := recv[pos]; got != uint32(s*1000+r*10+k) {
					return fmt.Errorf("rank %d: element %d from %d = %d", r, k, s, got)
				}
				pos++
			}
		}
		if pos != len(recv) {
			return fmt.Errorf("rank %d: %d elements unaccounted", r, len(recv)-pos)
		}
		return nil
	})
}

func TestAlltoallvEmptySegments(t *testing.T) {
	runAll(t, func(c *Comm) error {
		counts := make([]int, c.Size()) // all zero
		recv, recvCounts, err := Alltoallv(c, []uint64{}, counts)
		if err != nil {
			return err
		}
		if len(recv) != 0 {
			return fmt.Errorf("received %d elements from empty exchange", len(recv))
		}
		for s, n := range recvCounts {
			if n != 0 {
				return fmt.Errorf("recvCounts[%d] = %d", s, n)
			}
		}
		return nil
	})
}

func TestAlltoallvCountMismatch(t *testing.T) {
	err := RunLocal(2, func(c *Comm) error {
		_, _, err := Alltoallv(c, []uint32{1, 2, 3}, []int{1, 1}) // sums to 2, not 3
		if err == nil {
			return errors.New("no error for mismatched counts")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	runAll(t, func(c *Comm) error {
		got, err := Allgather(c, int64(c.Rank()*7))
		if err != nil {
			return err
		}
		for s, v := range got {
			if v != int64(s*7) {
				return fmt.Errorf("Allgather[%d] = %d", s, v)
			}
		}
		return nil
	})
}

func TestAllgatherv(t *testing.T) {
	runAll(t, func(c *Comm) error {
		local := make([]uint32, c.Rank()) // rank r contributes r elements
		for i := range local {
			local[i] = uint32(c.Rank()*100 + i)
		}
		all, counts, err := Allgatherv(c, local)
		if err != nil {
			return err
		}
		pos := 0
		for s, n := range counts {
			if n != s {
				return fmt.Errorf("counts[%d] = %d", s, n)
			}
			for i := 0; i < n; i++ {
				if all[pos] != uint32(s*100+i) {
					return fmt.Errorf("all[%d] = %d", pos, all[pos])
				}
				pos++
			}
		}
		return nil
	})
}

func TestBcast(t *testing.T) {
	runAll(t, func(c *Comm) error {
		for root := 0; root < c.Size(); root++ {
			var vals []uint16
			if c.Rank() == root {
				vals = []uint16{1, 2, 3, uint16(root)}
			}
			got, err := Bcast(c, vals, root)
			if err != nil {
				return err
			}
			want := []uint16{1, 2, 3, uint16(root)}
			if len(got) != len(want) {
				return fmt.Errorf("root %d: got %v", root, got)
			}
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("root %d: got %v", root, got)
				}
			}
		}
		return nil
	})
}

func TestBcastBadRoot(t *testing.T) {
	err := RunLocal(2, func(c *Comm) error {
		_, err := Bcast(c, []uint32{1}, 5)
		if err == nil {
			return errors.New("no error for out-of-range root")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceOps(t *testing.T) {
	runAll(t, func(c *Comm) error {
		p := c.Size()
		sum, err := Allreduce(c, uint64(c.Rank()+1), OpSum)
		if err != nil {
			return err
		}
		if want := uint64(p * (p + 1) / 2); sum != want {
			return fmt.Errorf("sum = %d, want %d", sum, want)
		}
		mn, err := Allreduce(c, int64(c.Rank()), OpMin)
		if err != nil {
			return err
		}
		if mn != 0 {
			return fmt.Errorf("min = %d", mn)
		}
		mx, err := Allreduce(c, float64(c.Rank())*1.5, OpMax)
		if err != nil {
			return err
		}
		if want := float64(p-1) * 1.5; mx != want {
			return fmt.Errorf("max = %v, want %v", mx, want)
		}
		return nil
	})
}

func TestAllreduceSlice(t *testing.T) {
	runAll(t, func(c *Comm) error {
		vals := []uint32{uint32(c.Rank()), 1, uint32(c.Rank() * 2)}
		got, err := AllreduceSlice(c, vals, OpSum)
		if err != nil {
			return err
		}
		p := uint32(c.Size())
		want0 := p * (p - 1) / 2
		if got[0] != want0 || got[1] != p || got[2] != 2*want0 {
			return fmt.Errorf("AllreduceSlice = %v", got)
		}
		return nil
	})
}

func TestExScan(t *testing.T) {
	runAll(t, func(c *Comm) error {
		got, err := ExScan(c, uint64(c.Rank()+1), OpSum, 0)
		if err != nil {
			return err
		}
		r := uint64(c.Rank())
		want := r * (r + 1) / 2
		if got != want {
			return fmt.Errorf("rank %d ExScan = %d, want %d", c.Rank(), got, want)
		}
		return nil
	})
}

func TestMaxLoc(t *testing.T) {
	runAll(t, func(c *Comm) error {
		// Rank r has value (r*13) mod size*7 with payload r*1000.
		p := c.Size()
		val := uint32((c.Rank() * 13) % (p * 7))
		v, payload, rank, err := MaxLoc(c, val, uint64(c.Rank()*1000))
		if err != nil {
			return err
		}
		// Recompute expected winner locally.
		wantRank, wantVal := 0, uint32(0)
		for r := 0; r < p; r++ {
			rv := uint32((r * 13) % (p * 7))
			if rv > wantVal {
				wantVal, wantRank = rv, r
			}
		}
		if v != wantVal || rank != wantRank || payload != uint64(wantRank*1000) {
			return fmt.Errorf("MaxLoc = (%d,%d,%d), want (%d,*,%d)", v, payload, rank, wantVal, wantRank)
		}
		return nil
	})
}

func TestStatsBreakdown(t *testing.T) {
	err := RunLocal(2, func(c *Comm) error {
		c.ResetStats()
		// Do some exchanges with asymmetric payloads.
		for i := 0; i < 5; i++ {
			send := make([]uint32, 100*(c.Rank()+1)*c.Size())
			counts := make([]int, c.Size())
			for d := range counts {
				counts[d] = 100 * (c.Rank() + 1)
			}
			if _, _, err := Alltoallv(c, send, counts); err != nil {
				return err
			}
		}
		s := c.TakeStats()
		if s.Exchanges != 5 {
			return fmt.Errorf("Exchanges = %d, want 5", s.Exchanges)
		}
		if c.Size() > 1 && s.BytesSent == 0 {
			return errors.New("BytesSent is zero despite off-rank traffic")
		}
		// Rank 0 sends 100 u32 to rank 1 per round; rank 1 sends 200 to 0.
		wantSent := uint64(5 * 100 * (c.Rank() + 1) * 4)
		if s.BytesSent != wantSent {
			return fmt.Errorf("BytesSent = %d, want %d", s.BytesSent, wantSent)
		}
		wantRecv := uint64(5 * 100 * (2 - c.Rank()) * 4)
		if s.BytesRecv != wantRecv {
			return fmt.Errorf("BytesRecv = %d, want %d", s.BytesRecv, wantRecv)
		}
		if s.Total() <= 0 {
			return errors.New("Total() not positive")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelfMessageExcludedFromVolume(t *testing.T) {
	err := RunLocal(1, func(c *Comm) error {
		c.ResetStats()
		if _, _, err := Alltoallv(c, []uint32{1, 2, 3}, []int{3}); err != nil {
			return err
		}
		s := c.TakeStats()
		if s.BytesSent != 0 || s.BytesRecv != 0 {
			return fmt.Errorf("self traffic counted: sent=%d recv=%d", s.BytesSent, s.BytesRecv)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAbortUnblocksPeers(t *testing.T) {
	err := RunLocal(3, func(c *Comm) error {
		if c.Rank() == 0 {
			return errors.New("deliberate failure")
		}
		// Other ranks head into a barrier that rank 0 never joins; abort
		// must wake them with ErrAborted rather than deadlocking.
		err := c.Barrier()
		if err == nil {
			// Timing may let the barrier complete if rank 0 aborts late;
			// but with rank 0 never calling Barrier, err must be non-nil.
			return errors.New("barrier succeeded without rank 0")
		}
		return nil // swallow ErrAborted: the real failure is rank 0's
	})
	if err == nil {
		t.Fatal("RunLocal returned nil despite rank failure")
	}
	if !strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("error does not carry originating failure: %v", err)
	}
}

func TestPanicConvertedToError(t *testing.T) {
	err := RunLocal(2, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("boom")
		}
		_ = c.Barrier()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panic not reported: %v", err)
	}
}

func TestExchangeWrongSize(t *testing.T) {
	trs := NewLocalGroup(2)
	var wg sync.WaitGroup
	wg.Add(2)
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		go func(r int) {
			defer wg.Done()
			if r == 0 {
				_, _, errs[r] = trs[r].Exchange(make([][]byte, 5))
			} else {
				// Peer does nothing; rank 0's error is local and immediate.
				errs[r] = nil
			}
		}(r)
	}
	wg.Wait()
	if errs[0] == nil {
		t.Fatal("Exchange with wrong message count did not fail")
	}
}

func TestConcurrentGroups(t *testing.T) {
	// Multiple independent groups must not interfere.
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = RunLocal(3, func(c *Comm) error {
				v, err := Allreduce(c, uint64(g), OpSum)
				if err != nil {
					return err
				}
				if v != uint64(3*g) {
					return fmt.Errorf("group %d sum = %d", g, v)
				}
				return nil
			})
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
	}
}

func TestCodecAllTypes(t *testing.T) {
	checkRoundTrip(t, []uint8{0, 1, 255})
	checkRoundTrip(t, []uint16{0, 1, 65535})
	checkRoundTrip(t, []uint32{0, 1, 1<<32 - 1})
	checkRoundTrip(t, []uint64{0, 1, 1<<64 - 1})
	checkRoundTrip(t, []int32{-1 << 31, -1, 0, 1<<31 - 1})
	checkRoundTrip(t, []int64{-1 << 63, -1, 0, 1<<63 - 1})
	checkRoundTrip(t, []float32{-1.5, 0, 3.25})
	checkRoundTrip(t, []float64{-1.5, 0, 3.25, 1e300})
}

func checkRoundTrip[T Scalar](t *testing.T, vals []T) {
	t.Helper()
	b := encodeInto(nil, vals)
	if len(b) != len(vals)*sizeOf[T]() {
		t.Fatalf("%T: encoded %d bytes, want %d", vals, len(b), len(vals)*sizeOf[T]())
	}
	got, err := decode[T](b)
	if err != nil {
		t.Fatalf("%T: decode: %v", vals, err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("%T: round trip [%d] = %v, want %v", vals, i, got[i], vals[i])
		}
	}
}

func TestDecodeRaggedLength(t *testing.T) {
	if _, err := decode[uint32]([]byte{1, 2, 3}); err == nil {
		t.Fatal("ragged decode did not fail")
	}
}

func BenchmarkAlltoallvU32(b *testing.B) {
	for _, p := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("ranks=%d", p), func(b *testing.B) {
			const perDest = 4096
			b.SetBytes(int64(p * perDest * 4))
			err := RunLocal(p, func(c *Comm) error {
				send := make([]uint32, p*perDest)
				counts := make([]int, p)
				for d := range counts {
					counts[d] = perDest
				}
				for i := 0; i < b.N; i++ {
					if _, _, err := Alltoallv(c, send, counts); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
