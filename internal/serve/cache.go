package serve

import (
	"container/list"
	"strconv"
	"sync"

	"repro/internal/analytics"
)

// cacheKey is the result-cache key of a normalized job: the graph epoch
// and the job's AnswerKey. Two requests that would produce byte-identical
// answers on the same resident graph map to the same key; a different epoch
// (a reload or a mutation) or any parameter that changes the answer does
// not collide.
func cacheKey(epoch uint64, j *analytics.Job) string {
	return "e" + strconv.FormatUint(epoch, 10) + "|" + j.AnswerKey()
}

// resultCache is a thread-safe SIEVE cache of job results with
// hit/miss/eviction counters. Entries stay in insertion order; a hit only
// sets the entry's visited bit. Eviction walks a hand from the oldest entry
// toward the newest, clearing the bits it passes, and evicts the first
// entry not visited since, so a key read once leaves before a hot key. A
// capacity of zero disables it (every lookup misses, every insert is
// dropped).
type resultCache struct {
	mu        sync.Mutex
	cap       int
	order     *list.List               // front = newest insert
	entries   map[string]*list.Element // value: *cacheEntry
	hand      *list.Element            // next eviction candidate; nil = oldest
	hits      uint64
	misses    uint64
	evictions uint64
}

type cacheEntry struct {
	key     string
	res     *analytics.JobResult
	visited bool
}

// newResultCache returns a SIEVE cache holding up to capacity results.
func newResultCache(capacity int) *resultCache {
	if capacity < 0 {
		capacity = 0
	}
	return &resultCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

// Get returns the cached result for key, marking it visited, and counts
// the hit or miss.
func (c *resultCache) Get(key string) (*analytics.JobResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	e := el.Value.(*cacheEntry)
	e.visited = true
	return e.res, true
}

// Peek returns the cached result for key without touching the hit/miss
// counters or the visited bit. The dispatcher uses it to dedupe at dispatch
// time (a requeued twin may have populated the cache since admission)
// without skewing the admission-time cache statistics tests and dashboards
// pin.
func (c *resultCache) Peek(key string) (*analytics.JobResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*cacheEntry).res, true
}

// Put inserts a result, first evicting one entry when the cache is full;
// a present key has its result replaced and is marked visited.
func (c *resultCache) Put(key string, res *analytics.JobResult) {
	if c.cap == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		e.res, e.visited = res, true
		return
	}
	if c.order.Len() >= c.cap {
		c.evict()
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, res: res})
}

// evict moves the hand toward the newest entry, wrapping to the oldest,
// clearing visited bits until it reaches an unvisited entry, removes that
// entry and leaves the hand on its newer neighbour.
func (c *resultCache) evict() {
	el := c.hand
	if el == nil {
		el = c.order.Back()
	}
	for e := el.Value.(*cacheEntry); e.visited; e = el.Value.(*cacheEntry) {
		e.visited = false
		if el = el.Prev(); el == nil {
			el = c.order.Back()
		}
	}
	c.hand = el.Prev()
	c.order.Remove(el)
	delete(c.entries, el.Value.(*cacheEntry).key)
	c.evictions++
}

// CacheStats is the counter snapshot exported through /v1/stats.
type CacheStats struct {
	Size      int    `json:"size"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// Stats returns the current counters.
func (c *resultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Size: c.order.Len(), Capacity: c.cap,
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
	}
}
