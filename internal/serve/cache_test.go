package serve

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/analytics"
)

func cacheResult(i int) *analytics.JobResult {
	return &analytics.JobResult{Analytic: analytics.JobBFS, Rounds: i}
}

func cacheKeyN(i int) string { return fmt.Sprintf("k%d", i) }

// fillCache puts keys 0..n-1 in that order.
func fillCache(c *resultCache, n int) {
	for i := 0; i < n; i++ {
		c.Put(cacheKeyN(i), cacheResult(i))
	}
}

// visitedBits reports each entry's visited bit, oldest first.
func visitedBits(c *resultCache) []bool {
	var out []bool
	for el := c.order.Back(); el != nil; el = el.Prev() {
		out = append(out, el.Value.(*cacheEntry).visited)
	}
	return out
}

// TestCacheHitKeySurvivesScan: a key that was hit once outlives a full
// cache's worth of inserts of keys that are never read. Recency order
// (LRU) evicts it on the last of those inserts. Below cap 3 the hand wraps
// onto the hit key, its bit already cleared, within cap inserts.
func TestCacheHitKeySurvivesScan(t *testing.T) {
	for _, capacity := range []int{3, 4, 16, 256} {
		c := newResultCache(capacity)
		fillCache(c, capacity)
		if _, ok := c.Get(cacheKeyN(0)); !ok {
			t.Fatalf("cap %d: key 0 missing after fill", capacity)
		}
		for i := 0; i < capacity; i++ {
			c.Put(fmt.Sprintf("scan%d", i), cacheResult(-1))
		}
		if res, ok := c.Peek(cacheKeyN(0)); !ok || res.Rounds != 0 {
			t.Errorf("cap %d: hit key evicted by %d inserts of unread keys", capacity, capacity)
		}
		if st := c.Stats(); st.Size != capacity || st.Evictions != uint64(capacity) {
			t.Errorf("cap %d: size %d evictions %d, want %d and %d", capacity, st.Size, st.Evictions, capacity, capacity)
		}
	}
}

// zipfReplay replays the serve-hot-burst key stream against c: Zipf(1.0)
// over keys ranks, dealt from stratified decks of 128 draws (one uniform
// variate from each of 128 equal slices of [0, 1), through the inverse
// CDF, then shuffled), two clients alternating bursts of 8. Every burst
// looks its keys up first and inserts its misses after, as the scheduler
// admits a burst and caches its batch results. It returns the hit ratio
// after a warm-up of one deck per client.
func zipfReplay(c *resultCache, seed int64, keys, decks int) float64 {
	const deckSize, burst = 128, 8
	cdf := make([]float64, keys)
	sum := 0.0
	for i := range cdf {
		sum += 1 / float64(i+1)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	rng := rand.New(rand.NewSource(seed))
	deal := func() []int {
		d := make([]int, deckSize)
		for i := range d {
			u := (float64(i) + rng.Float64()) / deckSize
			d[i] = min(sort.SearchFloat64s(cdf, u), keys-1)
		}
		rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
		return d
	}
	var warm CacheStats
	for round := 0; round < decks; round++ {
		if round == 1 {
			warm = c.Stats()
		}
		a, b := deal(), deal()
		for i := 0; i < deckSize; i += burst {
			for _, d := range [][]int{a[i : i+burst], b[i : i+burst]} {
				var missed []string
				for _, k := range d {
					if _, ok := c.Get(cacheKeyN(k)); !ok {
						missed = append(missed, cacheKeyN(k))
					}
				}
				for _, k := range missed {
					c.Put(k, cacheResult(0))
				}
			}
		}
	}
	st := c.Stats()
	hits, misses := st.Hits-warm.Hits, st.Misses-warm.Misses
	return float64(hits) / float64(hits+misses)
}

// TestCacheZipfReplayHitRatio pins the hit ratio on the benchmark's hot
// stream: cap 256 over 1024 Zipf(1.0) keys. Recency order reads about
// 0.73 here; a static top-256 cache would read about 0.82.
func TestCacheZipfReplayHitRatio(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		c := newResultCache(256)
		ratio := zipfReplay(c, seed, 1024, 200)
		t.Logf("seed %d: hit ratio %.4f", seed, ratio)
		if ratio < 0.76 {
			t.Errorf("seed %d: hit ratio %.4f, want >= 0.76", seed, ratio)
		}
		if st := c.Stats(); st.Size != 256 {
			t.Errorf("seed %d: size %d after replay, want 256", seed, st.Size)
		}
	}
}

func TestCacheInvariants(t *testing.T) {
	t.Run("size and evictions", func(t *testing.T) {
		const capacity = 16
		c := newResultCache(capacity)
		rng := rand.New(rand.NewSource(5))
		inserts := 0
		for i := 0; i < 2000; i++ {
			k := rng.Intn(64)
			if _, ok := c.Peek(cacheKeyN(k)); !ok {
				inserts++
			}
			if rng.Intn(2) == 0 {
				c.Get(cacheKeyN(rng.Intn(64)))
			}
			c.Put(cacheKeyN(k), cacheResult(k))
			st := c.Stats()
			if st.Size > capacity || st.Size != len(c.entries) {
				t.Fatalf("put %d: size %d (map %d), cap %d", i, st.Size, len(c.entries), capacity)
			}
			if want := max(0, inserts-capacity); st.Evictions != uint64(want) {
				t.Fatalf("put %d: %d evictions after %d inserts, want %d", i, st.Evictions, inserts, want)
			}
		}
	})

	t.Run("peek changes neither counters nor the bit", func(t *testing.T) {
		c := newResultCache(4)
		fillCache(c, 4)
		before := c.Stats()
		if res, ok := c.Peek(cacheKeyN(0)); !ok || res.Rounds != 0 {
			t.Fatal("peek missed a present key")
		}
		if _, ok := c.Peek("absent"); ok {
			t.Fatal("peek hit an absent key")
		}
		if after := c.Stats(); after != before {
			t.Fatalf("peek moved the counters: %+v -> %+v", before, after)
		}
		if bits := visitedBits(c); bits[0] {
			t.Fatalf("peek set the visited bit: %v", bits)
		}
		c.Put("new", cacheResult(9))
		if _, ok := c.Peek(cacheKeyN(0)); ok {
			t.Fatal("the peeked oldest key survived the next eviction")
		}
	})

	t.Run("put on a present key replaces and marks visited", func(t *testing.T) {
		c := newResultCache(4)
		fillCache(c, 4)
		c.Put(cacheKeyN(0), cacheResult(100))
		if st := c.Stats(); st.Size != 4 || st.Evictions != 0 {
			t.Fatalf("re-put changed size or evicted: %+v", st)
		}
		if bits := visitedBits(c); !bits[0] {
			t.Fatalf("re-put left the bit clear: %v", bits)
		}
		c.Put("new", cacheResult(9))
		if res, ok := c.Peek(cacheKeyN(0)); !ok || res.Rounds != 100 {
			t.Fatalf("re-put key: %v %v, want the replaced result kept", res, ok)
		}
		if _, ok := c.Peek(cacheKeyN(1)); ok {
			t.Fatal("the oldest unvisited key survived the eviction")
		}
	})

	t.Run("capacity at most zero stores nothing", func(t *testing.T) {
		for _, capacity := range []int{0, -1} {
			c := newResultCache(capacity)
			fillCache(c, 3)
			if _, ok := c.Get(cacheKeyN(0)); ok {
				t.Fatalf("cap %d: hit", capacity)
			}
			if _, ok := c.Peek(cacheKeyN(1)); ok {
				t.Fatalf("cap %d: peek hit", capacity)
			}
			want := CacheStats{Misses: 1}
			if st := c.Stats(); st != want {
				t.Fatalf("cap %d: stats %+v, want %+v", capacity, st, want)
			}
		}
	})

	t.Run("all visited: one sweep clears every bit and evicts the oldest", func(t *testing.T) {
		c := newResultCache(4)
		fillCache(c, 4)
		for i := 0; i < 4; i++ {
			c.Get(cacheKeyN(i))
		}
		c.Put("new", cacheResult(9))
		if _, ok := c.Peek(cacheKeyN(0)); ok {
			t.Fatal("oldest key survived")
		}
		for i := 1; i < 4; i++ {
			if _, ok := c.Peek(cacheKeyN(i)); !ok {
				t.Fatalf("key %d evicted", i)
			}
		}
		if bits := visitedBits(c); fmt.Sprint(bits) != "[false false false false]" {
			t.Fatalf("bits after the sweep %v, want all clear", bits)
		}
		// The hand rests on key 1, now the oldest: the next insert evicts it.
		c.Put("newer", cacheResult(10))
		if _, ok := c.Peek(cacheKeyN(1)); ok {
			t.Fatal("the hand did not resume at the next oldest key")
		}
	})
}

// TestCacheConcurrentUse mixes Get, Put, Peek and Stats from 8 goroutines
// (run it under -race) and checks the size bound throughout.
func TestCacheConcurrentUse(t *testing.T) {
	const capacity, workers, ops = 32, 8, 4000
	c := newResultCache(capacity)
	var wg sync.WaitGroup
	var gets [workers]uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < ops; i++ {
				k := cacheKeyN(rng.Intn(4 * capacity))
				switch rng.Intn(4) {
				case 0:
					c.Get(k)
					gets[w]++
				case 1:
					c.Put(k, cacheResult(w))
				case 2:
					c.Peek(k)
				case 3:
					if st := c.Stats(); st.Size > capacity {
						t.Errorf("size %d > cap %d", st.Size, capacity)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	var total uint64
	for _, g := range gets {
		total += g
	}
	if st.Size != capacity || st.Size != len(c.entries) {
		t.Errorf("final size %d (map %d), want %d", st.Size, len(c.entries), capacity)
	}
	if st.Hits+st.Misses != total {
		t.Errorf("hits %d + misses %d != %d gets", st.Hits, st.Misses, total)
	}
}
