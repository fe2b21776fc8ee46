package par

// ExclusivePrefixSum returns the exclusive prefix sums of counts and the
// grand total. offsets has len(counts)+1 entries with offsets[0] == 0 and
// offsets[len(counts)] == total, the conventional CSR index layout.
//
// The paper computes these "SendOffs" arrays from per-task "NumSend" counts
// before every queue build (Algorithm 1, line 12).
func ExclusivePrefixSum(counts []uint64) (offsets []uint64, total uint64) {
	offsets = make([]uint64, len(counts)+1)
	for i, c := range counts {
		offsets[i+1] = offsets[i] + c
	}
	return offsets, offsets[len(counts)]
}

// PrefixSumParallel computes the exclusive prefix sums of counts in
// parallel using the pool. It matches ExclusivePrefixSum but is worthwhile
// when counts has millions of entries (e.g. per-vertex degrees during CSR
// construction).
func (p *Pool) PrefixSumParallel(counts []uint64) (offsets []uint64, total uint64) {
	n := len(counts)
	offsets = make([]uint64, n+1)
	if n == 0 {
		return offsets, 0
	}
	nw := p.n
	if nw == 1 || n < 4*nw {
		return ExclusivePrefixSum(counts)
	}
	// Pass 1: per-block sums.
	blockSum := make([]uint64, nw)
	p.Run(func(tid int) {
		lo, hi := blockRange(n, nw, tid)
		var s uint64
		for i := lo; i < hi; i++ {
			s += counts[i]
		}
		blockSum[tid] = s
	})
	// Sequential scan over the (tiny) per-block sums.
	blockOff := make([]uint64, nw+1)
	for i, s := range blockSum {
		blockOff[i+1] = blockOff[i] + s
	}
	// Pass 2: local scans seeded with the block offset.
	p.Run(func(tid int) {
		lo, hi := blockRange(n, nw, tid)
		acc := blockOff[tid]
		for i := lo; i < hi; i++ {
			offsets[i] = acc
			acc += counts[i]
		}
	})
	offsets[n] = blockOff[nw]
	return offsets, offsets[n]
}
