package serve

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/analytics"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/store"
)

// Snapshot persistence over the resident cluster. A snapshot is one
// JobSnapshot descriptor in the serialized job stream, so it captures a
// single consistent graph epoch: no mutate or compact can interleave with
// it. Each slot packs its served shard (the materialized base+overlay and
// its replay watermark) with core.EncodeShardState and writes it — plus,
// on the host's lowest slot, the host's unserved backup replicas — into
// the store as atomically renamed, per-section-checksummed files named by
// the store epoch. An Allreduce doubles as the all-files-durable barrier;
// only then does slot 0 seal and write the manifest (the commit point) and
// garbage-collect files no manifest references. Every IO failure is
// swallowed into the job's result (Persisted=false plus a reason): a full
// disk must never kill the compute group.
//
// Replica files of one shard are byte-identical by construction — every
// replica applies the same broadcast batches in the same order, and
// MergeDelta's output is canonical — so the manifest carries one digest
// per shard and the accumulator cross-checks every host's bytes against
// it, turning replica divergence into a failed (not silently wrong)
// snapshot.

// runSnapshot is the rank-side snapshot step. The store epoch defaults to
// the live logical epoch: re-snapshotting an unchanged epoch rewrites
// byte-identical files (mutations and full compactions both advance the
// epoch, so equal epoch implies equal state).
func (cl *Cluster) runSnapshot(ctx *core.Ctx, sc *slotState, job *analytics.Job) (*analytics.JobResult, error) {
	ep := job.SnapshotEpoch
	if ep == 0 {
		ep = cl.epoch.Load()
	}
	slot := ctx.Rank()
	wrote := uint64(0)
	if cl.store == nil {
		if slot == 0 {
			cl.snapFail(fmt.Errorf("no store configured"))
		}
	} else {
		if err := cl.writeShardFile(ep, slot, sc.host, sc.state); err != nil {
			cl.snapFail(err)
		} else {
			wrote++
		}
		for _, b := range sc.backups {
			if err := cl.writeShardFile(ep, b.shard, sc.host, b.st); err != nil {
				cl.snapFail(err)
			} else {
				wrote++
			}
		}
	}
	// The reduction is the barrier: every replica file a live host holds is
	// durably renamed into place before any slot proceeds, so the manifest
	// slot 0 writes next can never reference a partial file.
	total, err := comm.Allreduce(ctx.Comm, wrote, comm.OpSum)
	if err != nil {
		return nil, err
	}
	sc.state.mu.Lock()
	wm := sc.state.versionLocked()
	sc.state.mu.Unlock()
	wmMax, err := comm.Allreduce(ctx.Comm, wm, comm.OpMax)
	if err != nil {
		return nil, err
	}
	res := &analytics.JobResult{Analytic: analytics.JobSnapshot, Applied: total, Epoch: ep}
	if slot == 0 {
		res.Persisted, res.Detail = cl.commitSnapshot(ep, wmMax, sc.state, total)
	}
	return res, nil
}

// writeShardFile encodes one shard replica at its current overlay version
// and writes it into the store, recording the digest in the snapshot
// accumulator.
func (cl *Cluster) writeShardFile(ep uint64, shard, host int, st *shardState) error {
	g, err := st.serveGraph()
	if err != nil {
		return fmt.Errorf("shard %d: %w", shard, err)
	}
	st.mu.Lock()
	wm := st.versionLocked()
	st.mu.Unlock()
	enc, err := core.EncodeShardState(g, wm)
	if err != nil {
		return fmt.Errorf("shard %d: %w", shard, err)
	}
	d, err := cl.store.WriteShard(ep, shard, host, enc)
	if err != nil {
		return err
	}
	return cl.snapRecord(shard, host, d, len(enc))
}

// snapReset clears the snapshot accumulator. Snapshot calls it before
// submitting the job; the stream is serialized, so exactly one snapshot
// accumulates at a time.
func (cl *Cluster) snapReset() {
	cl.snapMu.Lock()
	cl.snapDigests = make(map[int]store.Digest, cl.size)
	cl.snapHosts = make(map[int][]int32, cl.size)
	cl.snapErrs = nil
	cl.snapMu.Unlock()
}

// snapRecord registers one written replica file, cross-checking that every
// host produced byte-identical content for the shard.
func (cl *Cluster) snapRecord(shard, host int, d store.Digest, n int) error {
	cl.snapMu.Lock()
	defer cl.snapMu.Unlock()
	if prev, ok := cl.snapDigests[shard]; ok && prev != d {
		return fmt.Errorf("shard %d replicas diverged: host %d wrote %d/%08x, another wrote %d/%08x",
			shard, host, d.Size, d.CRC, prev.Size, prev.CRC)
	}
	cl.snapDigests[shard] = d
	cl.snapHosts[shard] = append(cl.snapHosts[shard], int32(host))
	cl.lastSnapB.Add(uint64(n))
	return nil
}

// snapFail records one slot's snapshot failure for slot 0's commit verdict.
func (cl *Cluster) snapFail(err error) {
	cl.snapMu.Lock()
	cl.snapErrs = append(cl.snapErrs, err.Error())
	cl.snapMu.Unlock()
}

// commitSnapshot is slot 0's epilogue: if every slot wrote cleanly, seal
// and write the manifest and garbage-collect unreferenced files. Returns
// the (persisted, detail) verdict for the job result.
func (cl *Cluster) commitSnapshot(ep, wm uint64, st *shardState, files uint64) (bool, string) {
	cl.snapMu.Lock()
	errs := cl.snapErrs
	digests := cl.snapDigests
	hosts := cl.snapHosts
	cl.snapMu.Unlock()
	if len(errs) > 0 {
		return false, fmt.Sprintf("snapshot not committed: %s", errs[0])
	}
	if len(digests) != cl.size {
		return false, fmt.Sprintf("snapshot not committed: %d of %d shards written", len(digests), cl.size)
	}
	pb, err := partition.Encode(st.part)
	if err != nil {
		return false, fmt.Sprintf("snapshot not committed: %v", err)
	}
	m := &store.Manifest{
		Epoch:     ep,
		Watermark: wm,
		NGlobal:   st.nGlobal,
		MGlobal:   cl.m.Load(),
		Partition: pb,
		Placement: cl.placement,
	}
	for s := 0; s < cl.size; s++ {
		m.Shards = append(m.Shards, store.ShardEntry{Digest: digests[s], Hosts: hosts[s]})
	}
	if err := cl.store.WriteManifest(m); err != nil {
		return false, fmt.Sprintf("snapshot not committed: %v", err)
	}
	_, _ = cl.store.GC(m)
	cl.snapshots.Add(1)
	cl.lastSnapEp.Store(ep)
	cl.lastSnapN.Store(files)
	return true, ""
}

// Snapshot persists the cluster's current graph state into the attached
// store and commits a manifest, through one serialized snapshot job.
// Persisted=false on the result (with Detail) reports an IO failure that
// left the previous manifest in place; the error return is reserved for a
// dead cluster or comm failure.
func (cl *Cluster) Snapshot() (*analytics.JobResult, error) {
	if cl.store == nil {
		return nil, fmt.Errorf("serve: no store configured")
	}
	cl.snapReset()
	cl.lastSnapB.Store(0)
	res, _, err := cl.Run(&analytics.Job{Analytic: analytics.JobSnapshot})
	return res, err
}

// maybeAutoSnapshot nudges the snapshot manager after a full compaction
// swap. Non-blocking, like the auto-compaction nudge: the dispatch loop
// never waits on store IO.
func (cl *Cluster) maybeAutoSnapshot() {
	if !cl.autoSnapshot {
		return
	}
	select {
	case cl.snapReq <- struct{}{}:
	default:
	}
}

// snapManager is the auto-snapshot loop: one Snapshot per nudge, from its
// own goroutine so the serialized job stream sees it as just another job.
func (cl *Cluster) snapManager() {
	for {
		select {
		case <-cl.snapReq:
			_, _ = cl.Snapshot()
		case <-cl.dead:
			return
		}
	}
}

// bootShards loads every shard replica the placement assigns to host from
// the store, quarantining and repairing files that are corrupt or missing
// (a host that was dead at snapshot time has no file and re-replicates
// locally from a healthy sibling). Returns shard index -> loaded graph.
func (cl *Cluster) bootShards(host int) (map[int]*core.Graph, error) {
	m := cl.bootMan
	out := make(map[int]*core.Graph, cl.replicas)
	for s := 0; s < cl.size; s++ {
		if !cl.placement.HostsShard(host, s) {
			continue
		}
		g, err := cl.bootOneShard(m, s, host)
		if err != nil {
			return nil, err
		}
		out[s] = g
	}
	return out, nil
}

// bootOneShard reads, repairs if needed, and decodes one replica file.
func (cl *Cluster) bootOneShard(m *store.Manifest, shard, host int) (*core.Graph, error) {
	data, err := cl.store.ReadShard(m, shard, host)
	if err != nil {
		// Corrupt (digest mismatch) or missing. Move a corrupt file aside,
		// then rewrite from a healthy sibling replica; only a shard with no
		// healthy replica anywhere is unrecoverable.
		if !errors.Is(err, os.ErrNotExist) {
			_, _ = cl.store.Quarantine(m.Epoch, shard, host)
		}
		if _, rerr := cl.store.Repair(m, shard, host); rerr != nil {
			return nil, fmt.Errorf("serve: booting shard %d on host %d: %w", shard, host, rerr)
		}
		cl.bootRepairs.Add(1)
		if data, err = cl.store.ReadShard(m, shard, host); err != nil {
			return nil, fmt.Errorf("serve: booting shard %d on host %d: %w", shard, host, err)
		}
	}
	g, wm, err := core.LoadShardStateBytes(data)
	if err != nil {
		return nil, fmt.Errorf("serve: booting shard %d on host %d: %w", shard, host, err)
	}
	if wm != m.Watermark {
		return nil, fmt.Errorf("serve: shard %d file watermark %d disagrees with manifest %d", shard, wm, m.Watermark)
	}
	if g.NGlobal != m.NGlobal || g.Rank() != shard {
		return nil, fmt.Errorf("serve: shard %d file describes shard %d of %d vertices (manifest: %d vertices)",
			shard, g.Rank(), g.NGlobal, m.NGlobal)
	}
	return g, nil
}

// fastForwardHost advances every overlay on host to the persisted ingest
// watermark, so a replayed pre-snapshot batch is skipped exactly as it
// would be on the cluster that persisted it.
func (cl *Cluster) fastForwardHost(host int, wm uint64) {
	cl.hostMu.Lock()
	defer cl.hostMu.Unlock()
	for _, st := range cl.hosts[host].shards {
		st.mu.Lock()
		st.delta.FastForward(wm)
		st.mu.Unlock()
	}
}

// BootedFromStore reports whether the cluster skipped ingestion and loaded
// its shards from a store manifest.
func (cl *Cluster) BootedFromStore() bool { return cl.bootMan != nil }

// StoreStats is the persistent-store section of /v1/stats.
type StoreStats struct {
	Dir             string `json:"dir"`
	BootedFromStore bool   `json:"booted_from_store"`
	// BootRepairs counts replica files this boot rewrote from a sibling
	// (corrupt or missing at load time).
	BootRepairs uint64 `json:"boot_repairs"`
	// Snapshots counts committed manifests; LastEpoch/LastFiles/LastBytes
	// describe the most recent one.
	Snapshots uint64 `json:"snapshots"`
	LastEpoch uint64 `json:"last_epoch"`
	LastFiles uint64 `json:"last_files"`
	LastBytes uint64 `json:"last_bytes"`
	// Audit is the background auditor's counters, when one is running.
	Audit *store.AuditStats `json:"audit,omitempty"`
}

// StoreStats snapshots the store counters, or nil when the cluster has no
// store attached.
func (cl *Cluster) StoreStats() *StoreStats {
	if cl.store == nil {
		return nil
	}
	ss := &StoreStats{
		Dir:             cl.store.Dir(),
		BootedFromStore: cl.bootMan != nil,
		BootRepairs:     cl.bootRepairs.Load(),
		Snapshots:       cl.snapshots.Load(),
		LastEpoch:       cl.lastSnapEp.Load(),
		LastFiles:       cl.lastSnapN.Load(),
		LastBytes:       cl.lastSnapB.Load(),
	}
	if cl.auditor != nil {
		a := cl.auditor.Stats()
		ss.Audit = &a
	}
	return ss
}
