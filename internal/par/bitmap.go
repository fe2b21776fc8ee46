package par

import "math/bits"

// Bitmap is a dense set over [0, n) backed by 64-bit words, the frontier
// representation of the bottom-up traversal steps. Its methods follow the
// package's one-goroutine-drives rule; a parallel fill gives each pool
// worker its own range of whole words of Words.
type Bitmap struct {
	words []uint64
}

// NewBitmap returns an empty bitmap over [0, n).
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, BitmapWords(n))}
}

// BitmapWords returns the number of 64-bit words that hold n bits.
func BitmapWords(n int) int { return (n + 63) / 64 }

// Words exposes the backing words (length BitmapWords(n)) for packing into
// wire segments and for whole-word fills.
func (b *Bitmap) Words() []uint64 { return b.words }

// Set marks bit i. Not safe for concurrent writers.
func (b *Bitmap) Set(i uint32) { b.words[i>>6] |= 1 << (i & 63) }

// Get reports whether bit i is set.
func (b *Bitmap) Get(i uint32) bool { return b.words[i>>6]&(1<<(i&63)) != 0 }

// GatherBits packs the bits of src that idx names: bit i of dst is bit
// idx[i] of src, for i in [0, len(idx)), and the pad bits of the last word
// are zero. dst holds at least BitmapWords(len(idx)) words. The loop has no
// branch per bit, and each pool worker writes whole words of dst, so large
// gathers split without atomics.
func GatherBits(p *Pool, dst, src []uint64, idx []uint32) {
	nw := BitmapWords(len(idx))
	pack := func(lo, hi, _ int) {
		for wi := lo; wi < hi; wi++ {
			var w uint64
			seg := idx[wi*64 : min(wi*64+64, len(idx))]
			for _, v := range seg {
				w = w>>1 | src[v>>6]<<(^v&63)&(1<<63)
			}
			dst[wi] = w >> (64 - len(seg))
		}
	}
	if p == nil || nw < 256 {
		pack(0, nw, 0)
		return
	}
	p.For(nw, pack)
}

// ScatterBits is the inverse of GatherBits: for every set bit i of src
// below len(idx) it sets bit idx[i] of dst. Pad bits of src at or past
// len(idx) are ignored, so a peer cannot reach past idx through them.
func ScatterBits(dst, src []uint64, idx []uint32) {
	for wi := range BitmapWords(len(idx)) {
		for w := src[wi] & padMask(wi, len(idx)); w != 0; w &= w - 1 {
			v := idx[wi*64+bits.TrailingZeros64(w)]
			dst[v>>6] |= 1 << (v & 63)
		}
	}
}

// AppendSetBits appends idx[i] to out for every set bit i of src below
// len(idx), in ascending i, ignoring pad bits as ScatterBits does.
func AppendSetBits(out []uint32, src []uint64, idx []uint32) []uint32 {
	for wi := range BitmapWords(len(idx)) {
		for w := src[wi] & padMask(wi, len(idx)); w != 0; w &= w - 1 {
			out = append(out, idx[wi*64+bits.TrailingZeros64(w)])
		}
	}
	return out
}

// padMask keeps the bits of word wi that index [0, n).
func padMask(wi, n int) uint64 {
	if r := n - wi*64; r < 64 {
		return 1<<r - 1
	}
	return ^uint64(0)
}

// ForEachSetBit invokes fn for every set bit index in words' first n bits,
// in ascending order. The word skip makes sparse bitmaps cheap to drain.
func ForEachSetBit(words []uint64, n int, fn func(i int)) {
	nw := BitmapWords(n)
	for wi := 0; wi < nw; wi++ {
		w := words[wi]
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			i := wi*64 + bit
			if i >= n {
				return
			}
			fn(i)
			w &= w - 1
		}
	}
}
