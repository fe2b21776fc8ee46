package comm

import (
	"fmt"

	"repro/internal/par"
)

// Dense frontier exchange: the wire format ships one bit per retained halo
// slot instead of one 32-bit vertex id per active vertex, packed into
// 64-bit words and moved through the same zero-copy AlltoallvInto path as
// every other collective.
//
// Layout: the segment addressed to destination d holds
// par.BitmapWords(sendBits[d]) words; bit i of the segment is the
// membership of the d-th retained queue's i-th slot. Segments are
// word-aligned per destination, so both sides derive all offsets from the
// retained per-rank bit counts — no lengths travel on the wire beyond the
// transport's own framing.

// BitSegmentOffsets returns the per-destination word offsets of the packed
// layout (offs[d] is the first word of destination d's segment) and the
// total word count.
func BitSegmentOffsets(bitCounts []int) (offs []int, totalWords int) {
	offs = make([]int, len(bitCounts)+1)
	for d, b := range bitCounts {
		offs[d+1] = offs[d] + par.BitmapWords(b)
	}
	return offs[:len(bitCounts)], offs[len(bitCounts)]
}

// bitSegmentOffsetsInto is BitSegmentOffsets with caller-retained storage
// (the steady-state path of the traversal loops).
func bitSegmentOffsetsInto(offs []int, bitCounts []int) ([]int, int) {
	p := len(bitCounts)
	if cap(offs) < p {
		offs = make([]int, p)
	}
	offs = offs[:p]
	total := 0
	for d, b := range bitCounts {
		offs[d] = total
		total += par.BitmapWords(b)
	}
	return offs, total
}

// BitsScratch retains the word-count staging of AlltoallvBits across the
// rounds of one traversal, so steady-state dense exchanges allocate
// nothing. The zero value is ready to use.
type BitsScratch struct {
	wordCounts     []int
	recvWordCounts []int
	recvWords      []uint64
	recvOffs       []int
}

// AlltoallvBits ships per-destination packed bit segments: sendWords holds
// the concatenated word-aligned segments (destination d's segment occupies
// par.BitmapWords(sendBits[d]) words), and expectBits[r] is the number of
// bits this rank's retained queues expect from rank r. The returned words
// hold rank r's segment at recvOffs[r] (word-aligned, same layout rule).
//
// A received segment whose word count disagrees with expectBits is a
// protocol violation (mode mismatch or splice) and fails the exchange.
func AlltoallvBits(c *Comm, sendWords []uint64, sendBits []int, expectBits []int, sc *BitsScratch) (recvWords []uint64, recvOffs []int, err error) {
	size := c.Size()
	if len(sendBits) != size || len(expectBits) != size {
		return nil, nil, fmt.Errorf("comm: AlltoallvBits counts have %d/%d entries for %d ranks", len(sendBits), len(expectBits), size)
	}
	if cap(sc.wordCounts) < size {
		sc.wordCounts = make([]int, size)
	}
	wordCounts := sc.wordCounts[:size]
	total := 0
	for d, b := range sendBits {
		if b < 0 {
			return nil, nil, fmt.Errorf("comm: AlltoallvBits negative bit count %d for rank %d", b, d)
		}
		wordCounts[d] = par.BitmapWords(b)
		total += wordCounts[d]
	}
	if total != len(sendWords) {
		return nil, nil, fmt.Errorf("comm: AlltoallvBits segments need %d words, have %d", total, len(sendWords))
	}
	recv, recvCounts, err := AlltoallvInto(c, sendWords, wordCounts, sc.recvWords, sc.recvWordCounts)
	if err != nil {
		return nil, nil, err
	}
	sc.recvWords, sc.recvWordCounts = recv, recvCounts
	sc.recvOffs, _ = bitSegmentOffsetsInto(sc.recvOffs, expectBits)
	for r, n := range recvCounts {
		if want := par.BitmapWords(expectBits[r]); n != want {
			return nil, nil, corruptErr(c, r, "comm: AlltoallvBits segment from rank %d has %d words, retained queues expect %d", r, n, want)
		}
	}
	return recv, sc.recvOffs, nil
}
