package par

import (
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestBlockRangeCoversExactly(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 16, 100, 1000, 1023} {
		for _, nw := range []int{1, 2, 3, 4, 7, 8, 16} {
			covered := make([]int, n)
			prevHi := 0
			for tid := 0; tid < nw; tid++ {
				lo, hi := blockRange(n, nw, tid)
				if lo != prevHi {
					t.Fatalf("n=%d nw=%d tid=%d: gap/overlap lo=%d prevHi=%d", n, nw, tid, lo, prevHi)
				}
				for i := lo; i < hi; i++ {
					covered[i]++
				}
				prevHi = hi
			}
			if prevHi != n {
				t.Fatalf("n=%d nw=%d: ranges end at %d", n, nw, prevHi)
			}
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("n=%d nw=%d: index %d covered %d times", n, nw, i, c)
				}
			}
		}
	}
}

func TestBlockRangeBalanced(t *testing.T) {
	// No worker's block may exceed any other's by more than one element.
	f := func(nRaw uint16, nwRaw uint8) bool {
		n := int(nRaw)
		nw := int(nwRaw)%16 + 1
		minSz, maxSz := n+1, -1
		for tid := 0; tid < nw; tid++ {
			lo, hi := blockRange(n, nw, tid)
			sz := hi - lo
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
		}
		return maxSz-minSz <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForVisitsAllIndices(t *testing.T) {
	for _, nw := range []int{1, 2, 4, 8} {
		p := NewPool(nw)
		const n = 10000
		marks := make([]atomic.Int32, n)
		p.For(n, func(lo, hi, tid int) {
			for i := lo; i < hi; i++ {
				marks[i].Add(1)
			}
		})
		for i := range marks {
			if got := marks[i].Load(); got != 1 {
				t.Fatalf("nw=%d: index %d visited %d times", nw, i, got)
			}
		}
	}
}

func TestForZeroAndNegative(t *testing.T) {
	p := NewPool(4)
	called := false
	p.For(0, func(lo, hi, tid int) { called = true })
	p.For(-5, func(lo, hi, tid int) { called = true })
	if called {
		t.Fatal("body called for empty range")
	}
}

func TestNewPoolDefaults(t *testing.T) {
	if NewPool(0).Threads() < 1 {
		t.Fatal("NewPool(0) has no workers")
	}
	if NewPool(-3).Threads() < 1 {
		t.Fatal("NewPool(-3) has no workers")
	}
	if got := NewPool(5).Threads(); got != 5 {
		t.Fatalf("Threads() = %d, want 5", got)
	}
}

func TestSumRange(t *testing.T) {
	p := NewPool(3)
	n := 1000
	got := p.SumRangeU64(n, func(i int) uint64 { return uint64(i) })
	want := uint64(n*(n-1)) / 2
	if got != want {
		t.Fatalf("SumRangeU64 = %d, want %d", got, want)
	}
	gotF := p.SumRangeF64(4, func(i int) float64 { return 0.5 })
	if gotF != 2.0 {
		t.Fatalf("SumRangeF64 = %v, want 2", gotF)
	}
	if p.SumRangeU64(0, func(i int) uint64 { return 1 }) != 0 {
		t.Fatal("empty SumRangeU64 not zero")
	}
}

func TestExclusivePrefixSum(t *testing.T) {
	offs, total := ExclusivePrefixSum([]uint64{3, 0, 5, 2})
	want := []uint64{0, 3, 3, 8, 10}
	if total != 10 || len(offs) != len(want) {
		t.Fatalf("got offs=%v total=%d", offs, total)
	}
	for i := range want {
		if offs[i] != want[i] {
			t.Fatalf("offs=%v, want %v", offs, want)
		}
	}
}

func TestPrefixSumParallelMatchesSequential(t *testing.T) {
	p := NewPool(4)
	for _, n := range []int{0, 1, 5, 100, 4096, 10001} {
		counts := make([]uint64, n)
		for i := range counts {
			counts[i] = uint64(i%7) * uint64(i%3)
		}
		seqOffs, seqTotal := ExclusivePrefixSum(counts)
		parOffs, parTotal := p.PrefixSumParallel(counts)
		if seqTotal != parTotal {
			t.Fatalf("n=%d totals differ: %d vs %d", n, seqTotal, parTotal)
		}
		for i := range seqOffs {
			if seqOffs[i] != parOffs[i] {
				t.Fatalf("n=%d offset %d differs: %d vs %d", n, i, seqOffs[i], parOffs[i])
			}
		}
	}
}

func TestPrefixSumParallelQuick(t *testing.T) {
	p := NewPool(3)
	f := func(raw []uint16) bool {
		counts := make([]uint64, len(raw))
		for i, v := range raw {
			counts[i] = uint64(v)
		}
		a, at := ExclusivePrefixSum(counts)
		b, bt := p.PrefixSumParallel(counts)
		if at != bt || len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// queueHarness exercises Shared/Buf: many workers push (dest, value) items;
// afterwards every destination region must contain exactly the pushed items
// for that destination (in any order).
func queueHarness(t *testing.T, nw, ndest, perWorker, qsize int, direct bool) {
	t.Helper()
	p := NewPool(nw)

	// Counting pass: each worker will push values v = worker*perWorker + k
	// with destination v % ndest.
	counts := make([]uint64, ndest)
	for w := 0; w < nw; w++ {
		for k := 0; k < perWorker; k++ {
			v := uint64(w*perWorker + k)
			counts[v%uint64(ndest)]++
		}
	}
	offsets, total := ExclusivePrefixSum(counts)

	out := make([]uint64, total)
	sh := NewShared(offsets, func(dest int, base uint64, items []uint64) {
		copy(out[base:base+uint64(len(items))], items)
	})

	p.Run(func(tid int) {
		if direct {
			for k := 0; k < perWorker; k++ {
				v := uint64(tid*perWorker + k)
				sh.PushDirect(int(v%uint64(ndest)), v)
			}
			return
		}
		buf := sh.Buf(qsize)
		for k := 0; k < perWorker; k++ {
			v := uint64(tid*perWorker + k)
			buf.Push(int(v%uint64(ndest)), v)
		}
		buf.Flush()
	})

	// Verify each region holds exactly its items.
	for d := 0; d < ndest; d++ {
		region := out[offsets[d]:offsets[d+1]]
		got := append([]uint64(nil), region...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		var want []uint64
		for w := 0; w < nw; w++ {
			for k := 0; k < perWorker; k++ {
				v := uint64(w*perWorker + k)
				if int(v%uint64(ndest)) == d {
					want = append(want, v)
				}
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("dest %d: %d items, want %d", d, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("dest %d item %d: %d, want %d", d, i, got[i], want[i])
			}
		}
	}
}

func TestSharedQueueBuffered(t *testing.T) {
	queueHarness(t, 4, 3, 1000, 16, false)
	queueHarness(t, 2, 8, 500, 1, false)   // flush on every push
	queueHarness(t, 8, 1, 200, 999, false) // single destination, no flush until end
}

func TestSharedQueueDirect(t *testing.T) {
	queueHarness(t, 4, 3, 1000, 0, true)
}

func TestSharedQueueOverflowPanics(t *testing.T) {
	offsets := []uint64{0, 2} // room for two items at dest 0
	sh := NewShared(offsets, func(dest int, base uint64, items []uint64) {})
	sh.Reserve(0, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("overflowing Reserve did not panic")
		}
	}()
	sh.Reserve(0, 1)
}

func TestBufDefaultQSize(t *testing.T) {
	offsets := []uint64{0, 10}
	var wrote int
	sh := NewShared(offsets, func(dest int, base uint64, items []uint64) { wrote += len(items) })
	b := sh.Buf(0) // default qsize
	for i := 0; i < 10; i++ {
		b.Push(0, uint64(i))
	}
	b.Flush()
	if wrote != 10 {
		t.Fatalf("wrote %d items, want 10", wrote)
	}
}

func BenchmarkSharedQueueBuffered(b *testing.B) {
	p := NewPool(4)
	const ndest = 8
	n := b.N
	counts := make([]uint64, ndest)
	counts[0] = uint64(n) // worst case: everything one dest? No: spread below.
	for d := range counts {
		counts[d] = uint64(n/ndest + 1)
	}
	offsets, total := ExclusivePrefixSum(counts)
	out := make([]uint64, total)
	sh := NewShared(offsets, func(dest int, base uint64, items []uint64) {
		copy(out[base:], items)
	})
	b.ResetTimer()
	p.Run(func(tid int) {
		buf := sh.Buf(512)
		lo, hi := blockRange(n, p.Threads(), tid)
		for i := lo; i < hi; i++ {
			buf.Push(i%ndest, uint64(i))
		}
		buf.Flush()
	})
}
