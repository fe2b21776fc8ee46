package par

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// setBits counts b's set bits among its first n, one Get at a time.
func setBits(b *Bitmap, n int) int {
	c := 0
	for i := 0; i < n; i++ {
		if b.Get(uint32(i)) {
			c++
		}
	}
	return c
}

func TestBitmapSetGetClear(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		b := NewBitmap(n)
		rng := rand.New(rand.NewSource(int64(n)))
		want := make(map[uint32]bool)
		for i := 0; i < n/2+1 && n > 0; i++ {
			v := uint32(rng.Intn(n))
			b.Set(v)
			want[v] = true
		}
		for i := 0; i < n; i++ {
			if got := b.Get(uint32(i)); got != want[uint32(i)] {
				t.Fatalf("n=%d: bit %d = %v, want %v", n, i, got, want[uint32(i)])
			}
		}
		if got := setBits(b, n); got != len(want) {
			t.Fatalf("n=%d: count %d, want %d", n, got, len(want))
		}
		clear(b.Words())
		if got := setBits(b, n); got != 0 {
			t.Fatalf("n=%d: count %d after clear, want 0", n, got)
		}
	}
}

// TestGatherScatterBitsMatchReference checks the halo bit helpers against a
// bit-at-a-time reference over a packed layout like the frontier engine's:
// word-aligned segments of assorted sizes — empty, under, at and over a
// word, and one wide enough that GatherBits splits over the pool — drawn
// from a universe whose size is not a multiple of 64. Gathered segments
// must have zero pad bits whatever the staging held; scattered and
// appended ones must ignore set pad bits. Run under -race, the 4-thread
// pool checks that the split gather writes disjoint words.
func TestGatherScatterBitsMatchReference(t *testing.T) {
	const n = 64*400 + 37
	sizes := []int{0, 1, 63, 64, 65, 0, 130, 300*64 + 5, 0}
	for _, threads := range []int{1, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("threads=%d/seed=%d", threads, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				src := NewBitmap(n)
				for i := 0; i < n/3; i++ {
					src.Set(uint32(rng.Intn(n)))
				}
				idxs := make([][]uint32, len(sizes))
				offs, total := make([]int, len(sizes)), 0
				for s, size := range sizes {
					idxs[s] = make([]uint32, size)
					for i := range idxs[s] {
						idxs[s][i] = uint32(rng.Intn(n))
					}
					offs[s], total = total, total+BitmapWords(size)
				}
				packed := make([]uint64, total)
				for i := range packed {
					packed[i] = rng.Uint64() // stale staging
				}
				for s, idx := range idxs {
					GatherBits(NewPool(threads), packed[offs[s]:], src.Words(), idx)
				}
				for s, idx := range idxs {
					seg := packed[offs[s]:][:BitmapWords(len(idx))]
					for i := 0; i < len(seg)*64; i++ {
						got := seg[i>>6]>>(i&63)&1 == 1
						want := i < len(idx) && src.Get(idx[i])
						if got != want {
							t.Fatalf("segment %d (%d bits): gathered bit %d = %v, want %v", s, len(idx), i, got, want)
						}
					}
					// Set every pad bit, as a forging peer would.
					if r := len(idx) % 64; r != 0 {
						seg[len(seg)-1] |= ^uint64(0) << r
					}
				}
				dst := NewBitmap(n)
				var appended []uint32
				for s, idx := range idxs {
					seg := packed[offs[s]:]
					ScatterBits(dst.Words(), seg, idx)
					appended = AppendSetBits(appended, seg, idx)
				}
				want := NewBitmap(n)
				var wantList []uint32
				for _, idx := range idxs {
					for _, v := range idx {
						if src.Get(v) {
							want.Set(v)
							wantList = append(wantList, v)
						}
					}
				}
				if !slices.Equal(dst.Words(), want.Words()) {
					t.Fatal("ScatterBits differs from the reference")
				}
				if !slices.Equal(appended, wantList) {
					t.Fatalf("AppendSetBits gave %d indices, reference %d", len(appended), len(wantList))
				}
				visited := 0
				ForEachSetBit(dst.Words(), n, func(i int) {
					if !want.Get(uint32(i)) {
						t.Fatalf("ForEachSetBit visited unset bit %d", i)
					}
					visited++
				})
				if c := setBits(dst, n); visited != c {
					t.Fatalf("ForEachSetBit visited %d bits, %d are set", visited, c)
				}
			})
		}
	}
}
