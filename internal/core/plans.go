package core

import "repro/internal/obs"

// Plans is one rank's kernel-plan cache: whatever an analytic derives once
// from the partitioned graph and would otherwise re-derive per call (the
// retained halo queues and their bit-segment geometry). It lives on the Ctx
// and so shares its confinement and its lifetime — a resident service
// creates one per compute slot per generation, a one-shot program leaves it
// nil and every kernel builds what it needs per call.
//
// Building a plan is collective, so whether a plan is cached must be
// identical on every rank of the group at every job boundary. The cache
// therefore never invalidates by itself (no pointer-identity or "my shard
// changed" test, which only one rank might trip): its owner calls Reset on
// every rank at the same point of the job stream, and a failed build stores
// nothing. All methods are nil-safe: a nil cache never hits and never
// stores.
type Plans struct {
	counters *obs.PlanCounters
	plans    map[any]any
}

// NewPlans returns an empty cache metering into c (nil selects private
// counters).
func NewPlans(c *obs.PlanCounters) *Plans {
	if c == nil {
		c = &obs.PlanCounters{}
	}
	return &Plans{counters: c, plans: make(map[any]any)}
}

// Lookup returns the plan stored under key.
func (p *Plans) Lookup(key any) (any, bool) {
	if p == nil {
		return nil, false
	}
	plan, ok := p.plans[key]
	if ok {
		p.counters.Hits.Add(1)
	}
	return plan, ok
}

// Store retains a freshly built plan under key.
func (p *Plans) Store(key, plan any) {
	if p == nil {
		return
	}
	p.plans[key] = plan
	p.counters.Builds.Add(1)
}

// Reset drops every plan. The owner calls it on every rank after the same
// job, so the next lookup misses — and the rebuild runs — group-wide.
func (p *Plans) Reset() {
	if p == nil {
		return
	}
	clear(p.plans)
	p.counters.Resets.Add(1)
}
