package obs

import "sync/atomic"

// PlanCounters meters one compute slot's kernel-plan cache (core.Plans):
// how many plans were built, how many lookups a retained plan answered, and
// how many times the cache was cleared. The cache itself dies with its
// generation; the counters belong to whoever outlives it (the serve
// cluster), so the totals survive failover. Atomics because the slot's
// goroutine writes them while /v1/stats reads.
type PlanCounters struct {
	// Builds counts plans constructed and stored (each one a collective
	// build every slot of the group performed together).
	Builds atomic.Uint64
	// Hits counts lookups answered by a retained plan.
	Hits atomic.Uint64
	// Resets counts lockstep invalidations (one per mutating job executed).
	Resets atomic.Uint64
}

// PlanSnapshot is the JSON-friendly counter snapshot for /v1/stats.
type PlanSnapshot struct {
	Builds uint64 `json:"plan_builds"`
	Hits   uint64 `json:"plan_hits"`
	Resets uint64 `json:"plan_resets"`
}

// Snapshot reads the counters; nil-safe (a nil receiver reads as zero).
func (c *PlanCounters) Snapshot() PlanSnapshot {
	if c == nil {
		return PlanSnapshot{}
	}
	return PlanSnapshot{
		Builds: c.Builds.Load(),
		Hits:   c.Hits.Load(),
		Resets: c.Resets.Load(),
	}
}
