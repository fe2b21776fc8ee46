package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analytics"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/partition"
)

// Streaming ingest over the resident cluster. Mutations arrive as jobs
// (JobMutate descriptors) through the same broadcast dispatch as queries,
// so one serialized job stream orders reads against writes with no extra
// locking protocol between ranks. Each replica of each shard is a
// shardState: an immutable packed base CSR plus a core.Delta overlay.
// Queries run on a lazily materialized merge of the overlay (a plain
// *core.Graph, so analytics kernels are untouched); compaction promotes a
// background-materialized merge to be the new base and resets the overlay,
// while the old epoch keeps serving until the swap instant.
//
// Exactly-once ingest: every mutate batch carries a cluster-assigned
// ascending MutationID and every overlay keeps a replay watermark, so a
// batch replayed by the scheduler after a group death (or applied to a
// backup replica that already saw it) is skipped whole. The batch travels
// whole in the job broadcast, so every replica — served or backup — applies
// it with core.Delta.Apply, and no exchange routes records to owners.

// shardState is one replica of one shard: the packed base, its mutation
// overlay, and at most one cached materialization of base+overlay.
type shardState struct {
	// part and nGlobal are immutable across compaction swaps (mutations
	// never change the vertex set or the partition map).
	part    partition.Partitioner
	nGlobal uint32

	// mergeMu serializes materialization so a background compaction merge
	// and a query-path merge never duplicate the work.
	mergeMu sync.Mutex
	// meter is the cluster's merge counter, shared by all its replicas.
	meter *mergeMeter

	// mu guards everything below.
	mu       sync.Mutex
	base     *core.Graph
	delta    *core.Delta
	merged   *core.Graph // materialization of base+delta at version, or nil
	mGlobal  uint64      // global live edge count after the last batch
	compactV uint64      // overlay version of the last completed swap
}

// mergeMeter counts the overlay merges whose result a replica kept, and
// the time they took: what mutate→visible costs beyond the batch itself.
type mergeMeter struct {
	merges atomic.Uint64
	nanos  atomic.Uint64
}

// newShardState wraps a freshly built or loaded shard.
func newShardState(g *core.Graph, meter *mergeMeter) *shardState {
	return &shardState{
		meter:   meter,
		part:    g.Part,
		nGlobal: g.NGlobal,
		base:    g,
		delta:   core.NewDelta(g),
		mGlobal: g.MGlobal,
	}
}

// version is the overlay's replay watermark: the id of the last applied
// mutation batch. Caller holds st.mu.
func (st *shardState) versionLocked() uint64 { return st.delta.LastID() }

// serveGraph returns the graph a query should traverse: the base when the
// overlay is empty, the cached materialization when one exists, otherwise
// a synchronous merge (the first query after a mutation pays the merge the
// background compactor would otherwise have paid).
func (st *shardState) serveGraph() (*core.Graph, error) {
	for {
		st.mu.Lock()
		if st.delta.Empty() {
			g := st.base
			st.mu.Unlock()
			return g, nil
		}
		if st.merged != nil {
			g := st.merged
			st.mu.Unlock()
			return g, nil
		}
		st.mu.Unlock()
		if err := st.materialize(); err != nil {
			return nil, err
		}
	}
}

// materialize merges base+overlay into a cached graph. The merge runs
// outside st.mu on a deep-copied overlay snapshot, so ingest keeps
// applying while a background compaction merges; the result is stored
// only if no batch landed and no edge count was agreed in between (a newer
// batch or count will re-materialize).
func (st *shardState) materialize() error {
	st.mergeMu.Lock()
	defer st.mergeMu.Unlock()
	st.mu.Lock()
	if st.merged != nil || st.delta.Empty() {
		st.mu.Unlock()
		return nil
	}
	snap := st.delta.Clone()
	v := st.versionLocked()
	m := st.mGlobal
	st.mu.Unlock()

	start := time.Now()
	g, err := core.MergeDelta(snap, m)
	if err != nil {
		return err
	}
	st.mu.Lock()
	if st.versionLocked() == v && st.mGlobal == m && st.merged == nil {
		st.merged = g
		st.meter.merges.Add(1)
		st.meter.nanos.Add(uint64(time.Since(start)))
	}
	st.mu.Unlock()
	return nil
}

// swapReady reports whether this replica can be compacted at exactly the
// requested version: the overlay is at that version, it was not already
// compacted there, and the materialization to promote exists. The version
// alone does not decide it — a background merge that snapshotted this
// shard just before an in-flight batch reached it stores nothing, while a
// peer merged just after the same batch is ready — so the slots agree on
// readiness before any of them swaps (runCompact).
func (st *shardState) swapReady(version uint64) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if version == 0 || st.versionLocked() != version || st.compactV == version {
		return false
	}
	// A shard none of whose vertices the applied batches touched has an
	// empty overlay: nothing to merge, compaction is just the overlay
	// reset. Without this branch a sparse batch (records touching
	// only some shards) could never complete a full swap.
	return st.delta.Empty() || st.merged != nil
}

// swap promotes the cached materialization to be the new base: the overlay
// restarts empty over it, keeping the replay watermark. Only called after
// swapReady(version) held on every slot; nothing between the two can
// un-ready a replica (only jobs clear merged, and this is the running job).
func (st *shardState) swap(version uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.delta.Empty() {
		st.base = st.merged
	}
	st.compactV = version
	st.merged = nil
	d := core.NewDelta(st.base)
	d.FastForward(version)
	st.delta = d
}

// backupRef pairs an unserved backup replica with the shard index it
// backs, which names its replica file in a snapshot.
type backupRef struct {
	shard int
	st    *shardState
}

// slotState is everything one compute slot's dispatch loop serves in one
// generation: its shard replica plus (on the host's lowest slot only) the
// host's unserved backup replicas, which that slot keeps current on every
// mutate so a later promotion serves an up-to-date shard.
type slotState struct {
	state   *shardState
	host    int
	backups []backupRef
}

// apply applies one batch to the replica's overlay, invalidating the
// cached materialization only if the batch was new (a replay is skipped
// whole by the overlay's watermark), and returns the rank-local live edge
// counts of the two CSR sides. A non-nil mGlobal (a backup's, which the
// group has already agreed on) is recorded in the same critical section,
// so no materialization pairs the new overlay with the old count.
func (st *shardState) apply(id uint64, batch edge.Batch, mGlobal *uint64) (liveOut, liveIn uint64, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	before := st.versionLocked()
	if err := st.delta.Apply(id, batch); err != nil {
		return 0, 0, err
	}
	if st.versionLocked() != before {
		st.merged = nil
	}
	if mGlobal != nil {
		st.setMGlobalLocked(*mGlobal)
	}
	return st.delta.LiveOut(), st.delta.LiveIn(), nil
}

// setMGlobal records the global live edge count the group agreed on.
func (st *shardState) setMGlobal(m uint64) {
	st.mu.Lock()
	st.setMGlobalLocked(m)
	st.mu.Unlock()
}

// setMGlobalLocked records m and drops a cached merge that carries another
// count: one a background materialization stored between this batch's
// apply and the agreement, which paired the new overlay with the old
// count. Caller holds st.mu.
func (st *shardState) setMGlobalLocked(m uint64) {
	st.mGlobal = m
	if st.merged != nil && st.merged.MGlobal != m {
		st.merged = nil
	}
}

// runMutate is the rank-side ingest step: apply the broadcast batch to the
// served replica, agree on the new global edge count (the reduction
// doubles as the all-slots-applied barrier — rank 0 acknowledges success
// only after it), then apply it to the host's unserved backups. Rank 0
// advances the epoch before responding, so a query admitted after the ack
// can never hit a pre-mutation cache entry.
func (cl *Cluster) runMutate(ctx *core.Ctx, sc *slotState, job *analytics.Job) (*analytics.JobResult, error) {
	if job.MutationID == 0 {
		return nil, fmt.Errorf("serve: mutate job has no mutation id")
	}
	st := sc.state
	liveOut, liveIn, err := st.apply(job.MutationID, job.Mutations, nil)
	if err != nil {
		return nil, err
	}
	// Reconcile the two CSR sides globally.
	mOut, err := comm.Allreduce(ctx.Comm, liveOut, comm.OpSum)
	if err != nil {
		return nil, err
	}
	mIn, err := comm.Allreduce(ctx.Comm, liveIn, comm.OpSum)
	if err != nil {
		return nil, err
	}
	if mOut != mIn {
		return nil, fmt.Errorf("serve: overlay out/in edge counts diverged: %d vs %d", mOut, mIn)
	}
	st.setMGlobal(mOut)
	for _, b := range sc.backups {
		if _, _, err := b.st.apply(job.MutationID, job.Mutations, &mOut); err != nil {
			return nil, fmt.Errorf("serve: updating backup of shard %d: %w", b.shard, err)
		}
	}
	ep := cl.epoch.Load()
	if ctx.Rank() == 0 {
		cl.m.Store(mOut)
		ep = cl.epoch.Add(1)
		cl.ingestBatches.Add(1)
		cl.ingestRecords.Add(uint64(len(job.Mutations)))
		cl.maybeAutoCompact()
	}
	return &analytics.JobResult{
		Analytic: analytics.JobMutate,
		Applied:  uint64(len(job.Mutations)),
		Epoch:    ep,
	}, nil
}

// runCompact is the rank-side epoch swap: the group agrees on how many
// slots hold a materialization current for the broadcast version, and only
// if all do does each promote its own — a compaction swaps every shard or,
// when a mutate raced the merge on any of them, none.
func (cl *Cluster) runCompact(ctx *core.Ctx, sc *slotState, job *analytics.Job) (*analytics.JobResult, error) {
	ready := uint64(0)
	if sc.state.swapReady(job.CompactVersion) {
		ready = 1
	}
	total, err := comm.Allreduce(ctx.Comm, ready, comm.OpSum)
	if err != nil {
		return nil, err
	}
	full := total == uint64(cl.size)
	swapped := uint64(0)
	if full {
		sc.state.swap(job.CompactVersion)
		swapped = total
	}
	ep := cl.epoch.Load()
	if ctx.Rank() == 0 && full {
		ep = cl.epoch.Add(1)
		cl.compactions.Add(1)
		cl.maybeAutoSnapshot()
	}
	return &analytics.JobResult{
		Analytic:  analytics.JobCompact,
		Applied:   swapped,
		Compacted: full,
		Epoch:     ep,
	}, nil
}

// servedStates returns, for every slot, the shard replica the current (or
// next) view would serve, mirroring formView's first-live-replica rule.
func (cl *Cluster) servedStates() ([]*shardState, error) {
	cl.hostMu.Lock()
	defer cl.hostMu.Unlock()
	out := make([]*shardState, cl.size)
	for s := 0; s < cl.size; s++ {
		host := -1
		for _, r := range cl.placement.ReplicaRanks(s) {
			if cl.hosts[r].alive {
				host = r
				break
			}
		}
		if host < 0 {
			return nil, fmt.Errorf("%w: shard %d", ErrShardLost, s)
		}
		st := cl.hosts[host].shards[s]
		if st == nil {
			return nil, fmt.Errorf("serve: host %d holds no replica of shard %d", host, s)
		}
		out[s] = st
	}
	return out, nil
}

// Compact runs one compaction cycle: materialize every served shard's
// overlay in the background (queries keep flowing against the old epoch —
// a query that arrives mid-merge either serves the still-valid cached
// materialization or pays its own merge), then submit one compact job
// through the serialized job stream to swap every shard atomically with
// respect to queries. Returns the compact job's result; Compacted is false
// when nothing needed compacting or a mutation raced the merge (retry on
// the next cycle).
func (cl *Cluster) Compact() (*analytics.JobResult, error) {
	states, err := cl.servedStates()
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	errs := make([]error, len(states))
	for i, st := range states {
		wg.Add(1)
		go func(i int, st *shardState) {
			defer wg.Done()
			errs[i] = st.materialize()
		}(i, st)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("serve: materializing shard %d: %w", i, err)
		}
	}
	// The uniform overlay version the swap is conditioned on. If a batch
	// lands between this read and the job's execution, every slot's version
	// has moved past it and every slot skips — never a partial swap. Note a
	// single shard's overlay content says nothing (a sparse batch may have
	// touched none of its vertices); only version == 0 means nothing was ingested.
	states[0].mu.Lock()
	version := states[0].versionLocked()
	states[0].mu.Unlock()
	if version == 0 {
		return &analytics.JobResult{Analytic: analytics.JobCompact, Epoch: cl.epoch.Load()}, nil
	}
	job := &analytics.Job{Analytic: analytics.JobCompact, CompactVersion: version}
	res, _, err := cl.Run(job)
	return res, err
}

// maybeAutoCompact nudges the background compaction manager once the
// configured batch budget is spent. Called by rank 0 inside the mutate
// job; the signal is non-blocking and the manager runs Compact from its
// own goroutine, so the dispatch loop never waits on a compaction.
func (cl *Cluster) maybeAutoCompact() {
	if cl.autoCompact <= 0 {
		return
	}
	if cl.sinceCompact.Add(1) < uint64(cl.autoCompact) {
		return
	}
	select {
	case cl.compactReq <- struct{}{}:
	default:
	}
}

// compactManager is the auto-compaction loop: one compaction cycle per
// nudge, with the batch budget re-armed first so batches ingested during
// the merge count toward the next cycle. A batch acknowledged between
// Compact's version read and its swap job makes every slot skip the swap;
// such a batch is always counted after the re-arm (its overlay version
// bump precedes its count), so a skipped swap with a non-zero count means
// the cycle was raced and is run again — otherwise the tail of an ingest
// burst, too short to spend a fresh budget, would stay uncompacted.
func (cl *Cluster) compactManager() {
	for {
		select {
		case <-cl.compactReq:
			for {
				cl.sinceCompact.Store(0)
				res, err := cl.Compact()
				if err != nil || res.Compacted || cl.sinceCompact.Load() == 0 {
					break
				}
			}
		case <-cl.dead:
			return
		}
	}
}

// IngestStats is the mutation-subsystem counter snapshot for /v1/stats.
type IngestStats struct {
	// Batches and Records count acknowledged mutate jobs and the mutation
	// records they carried (including replays, which ack without effect).
	Batches uint64 `json:"batches"`
	Records uint64 `json:"records"`
	// Compactions counts full epoch swaps.
	Compactions uint64 `json:"compactions"`
	// LastMutationID is the highest assigned batch id.
	LastMutationID uint64 `json:"last_mutation_id"`
	// Merges counts overlay materializations a replica kept — on the query
	// path (the first read after a batch) and ahead of a compaction alike,
	// one per shard replica — and MergeMsTotal is their summed wall time.
	Merges       uint64  `json:"merges"`
	MergeMsTotal float64 `json:"merge_ms_total"`
}

// IngestStats snapshots the mutation counters.
func (cl *Cluster) IngestStats() IngestStats {
	return IngestStats{
		Batches:        cl.ingestBatches.Load(),
		Records:        cl.ingestRecords.Load(),
		Compactions:    cl.compactions.Load(),
		LastMutationID: cl.nextMutID.Load(),
		Merges:         cl.merge.merges.Load(),
		MergeMsTotal:   float64(cl.merge.nanos.Load()) / 1e6,
	}
}

// NextMutationID assigns the next ingest batch id. The scheduler calls it
// at dispatch time — single-threaded, one job at a time — so ids ascend in
// application order and a requeued batch keeps the id it was assigned.
func (cl *Cluster) NextMutationID() uint64 { return cl.nextMutID.Add(1) }
