package serve

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/partition"
	"repro/internal/store"
)

// newStoreCluster builds a cluster with a persistent shard store attached.
// A zero-value cfgMod leaves the standard shape: the shared test graph,
// built from its edges in (src, dst) order so that its rows are in the
// order a merge writes (answers are byte-comparable across a
// snapshot/restart boundary).
func newStoreCluster(t *testing.T, dir string, ranks, replicas int, mod func(*ClusterConfig)) *Cluster {
	t.Helper()
	edges, err := testSpec.GenerateAll()
	if err != nil {
		t.Fatalf("generating test graph: %v", err)
	}
	cfg := ClusterConfig{
		Ranks:       ranks,
		Threads:     2,
		Source:      core.ListSource{Edges: sortedEdges(edges)},
		NumVertices: testSpec.NumVertices,
		Partition:   partition.Random,
		Seed:        7,
		Epoch:       1,
		Replicas:    replicas,
		StoreDir:    dir,
	}
	if mod != nil {
		mod(&cfg)
	}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(func() {
		if err := cl.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return cl
}

// rebootFromStore boots a cluster purely from the store directory: no edge
// source, no shape flags — the manifest is the whole description.
func rebootFromStore(t *testing.T, dir string, mod func(*ClusterConfig)) *Cluster {
	t.Helper()
	cfg := ClusterConfig{Threads: 2, StoreDir: dir}
	if mod != nil {
		mod(&cfg)
	}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatalf("NewCluster from store: %v", err)
	}
	t.Cleanup(func() {
		if err := cl.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	if !cl.BootedFromStore() {
		t.Fatalf("cluster did not boot from store")
	}
	return cl
}

// probeJobs is the query battery whose canonical answers must survive a
// snapshot/restart cycle bit-for-bit.
func probeJobs() []*analytics.Job {
	mk := func(j analytics.Job) *analytics.Job { j.Normalize(); return &j }
	return []*analytics.Job{
		mk(analytics.Job{Analytic: analytics.JobBFS, Sources: []uint32{1, 17}}),
		mk(analytics.Job{Analytic: analytics.JobSSSP, Sources: []uint32{3}, MaxWeight: 16, WeightSeed: 5}),
		mk(analytics.Job{Analytic: analytics.JobWCC}),
		mk(analytics.Job{Analytic: analytics.JobPageRank, Iterations: 5}),
		mk(analytics.Job{Analytic: analytics.JobKCore}),
	}
}

// canonicalAnswers runs the probe battery and returns each answer's
// canonical bytes.
func canonicalAnswers(t *testing.T, cl *Cluster) [][]byte {
	t.Helper()
	var out [][]byte
	for _, j := range probeJobs() {
		res, _, err := cl.Run(j)
		if err != nil {
			t.Fatalf("probe %s: %v", j.Analytic, err)
		}
		out = append(out, res.Canonical())
	}
	return out
}

func assertSameAnswers(t *testing.T, want, got [][]byte) {
	t.Helper()
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Fatalf("probe %d answer drifted across restart:\n  before: %s\n  after:  %s",
				i, want[i], got[i])
		}
	}
}

// mutateSome applies n small deterministic batches.
func mutateSome(t *testing.T, cl *Cluster, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		b := edge.Batch{
			{Op: edge.OpInsert, Src: uint32(2*i + 1), Dst: uint32(3*i + 2)},
			{Op: edge.OpInsert, Src: uint32(i), Dst: uint32(i + 40)},
			{Op: edge.OpDelete, Src: uint32(i), Dst: uint32(i + 1)},
		}
		if _, _, err := cl.Run(&analytics.Job{Analytic: analytics.JobMutate, Mutations: b}); err != nil {
			t.Fatalf("mutate %d: %v", i, err)
		}
	}
}

// snapshotOK snapshots and requires a committed manifest.
func snapshotOK(t *testing.T, cl *Cluster) *analytics.JobResult {
	t.Helper()
	res, err := cl.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if !res.Persisted {
		t.Fatalf("snapshot not persisted: %s", res.Detail)
	}
	return res
}

// TestSnapshotRestartByteIdentical is the core persistence contract: build,
// mutate, snapshot, tear the whole cluster down, boot a new one from
// nothing but the store directory — same shape, same epoch, same ingest
// watermark, byte-identical answers.
func TestSnapshotRestartByteIdentical(t *testing.T) {
	dir := t.TempDir()
	cl := newStoreCluster(t, dir, 3, 2, nil)
	mutateSome(t, cl, 2)
	want := canonicalAnswers(t, cl)
	wantEpoch, wantEdges, wantN := cl.Epoch(), cl.NumEdges(), cl.NumVertices()
	wantWM := cl.IngestStats().LastMutationID

	res := snapshotOK(t, cl)
	if res.Epoch != wantEpoch {
		t.Fatalf("snapshot committed epoch %d, live epoch %d", res.Epoch, wantEpoch)
	}
	// 3 shards x 2 replicas, all hosts alive.
	if res.Applied != 6 {
		t.Fatalf("snapshot wrote %d files, want 6", res.Applied)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	cl2 := rebootFromStore(t, dir, nil)
	if cl2.Size() != 3 || cl2.Replicas() != 2 {
		t.Fatalf("rebooted shape %d/%d, want 3/2", cl2.Size(), cl2.Replicas())
	}
	if cl2.Epoch() != wantEpoch {
		t.Fatalf("rebooted epoch %d, want %d", cl2.Epoch(), wantEpoch)
	}
	if cl2.NumEdges() != wantEdges {
		t.Fatalf("rebooted edge count %d, want %d", cl2.NumEdges(), wantEdges)
	}
	if cl2.NumVertices() != wantN {
		t.Fatalf("rebooted vertex count %d, want %d", cl2.NumVertices(), wantN)
	}
	assertSameAnswers(t, want, canonicalAnswers(t, cl2))

	// The ingest watermark carried over: a replay of an already-persisted
	// batch id is a no-op, and fresh ids continue ascending past it.
	replay := &analytics.Job{Analytic: analytics.JobMutate, MutationID: wantWM,
		Mutations: edge.Batch{{Op: edge.OpInsert, Src: 9, Dst: 99}}}
	epochBefore := cl2.Epoch()
	if _, _, err := cl2.Run(replay); err != nil {
		t.Fatalf("replaying persisted batch: %v", err)
	}
	assertSameAnswers(t, want, canonicalAnswers(t, cl2))
	if cl2.Epoch() != epochBefore+1 {
		t.Fatalf("replay should still ack (and bump the epoch): %d -> %d", epochBefore, cl2.Epoch())
	}
	mutateSome(t, cl2, 1)
	if got := cl2.IngestStats().LastMutationID; got != wantWM+1 {
		t.Fatalf("fresh batch id %d, want %d (watermark %d carried)", got, wantWM+1, wantWM)
	}
}

// TestSnapshotRestartTCP reruns the persistence contract with the compute
// group on real TCP transports, both before and after the restart.
func TestSnapshotRestartTCP(t *testing.T) {
	dir := t.TempDir()
	tcp := func(cfg *ClusterConfig) { cfg.Transports = tcpFactory(t) }
	cl := newStoreCluster(t, dir, 3, 2, tcp)
	mutateSome(t, cl, 1)
	want := canonicalAnswers(t, cl)
	snapshotOK(t, cl)
	if err := cl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	cl2 := rebootFromStore(t, dir, tcp)
	assertSameAnswers(t, want, canonicalAnswers(t, cl2))
}

// corruptStoreFile flips one bit in the named store file.
func corruptStoreFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x10
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// findShardFiles lists the store's current shard files.
func findShardFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := filepath.Glob(filepath.Join(dir, "shard-e*.gsd"))
	if err != nil || len(ents) == 0 {
		t.Fatalf("no shard files in %s (err %v)", dir, err)
	}
	return ents
}

// TestBootRepairsCorruptAndMissingShards: a bitflipped replica file and a
// deleted one are both healed at boot from sibling replicas — quarantine
// plus local re-replication, no collectives — and answers are unaffected.
func TestBootRepairsCorruptAndMissingShards(t *testing.T) {
	dir := t.TempDir()
	cl := newStoreCluster(t, dir, 3, 2, nil)
	mutateSome(t, cl, 1)
	want := canonicalAnswers(t, cl)
	snapshotOK(t, cl)
	if err := cl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Damage replicas of two *different* shards (sorted glob order groups a
	// shard's replicas together), so each keeps one healthy sibling.
	files := findShardFiles(t, dir)
	corruptStoreFile(t, files[0])
	if err := os.Remove(files[2]); err != nil {
		t.Fatal(err)
	}

	cl2 := rebootFromStore(t, dir, nil)
	ss := cl2.StoreStats()
	if ss == nil || ss.BootRepairs < 2 {
		t.Fatalf("boot repaired %+v, want >= 2 repairs", ss)
	}
	assertSameAnswers(t, want, canonicalAnswers(t, cl2))

	// The corrupt file was moved aside for inspection; the repaired copies
	// pass their digests again.
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	q, err := st.QuarantinedFiles()
	if err != nil || len(q) == 0 {
		t.Fatalf("nothing quarantined (err %v)", err)
	}
	m, err := st.ReadManifest()
	if err != nil {
		t.Fatal(err)
	}
	for s, e := range m.Shards {
		for _, h := range e.Hosts {
			if _, err := st.ReadShard(m, s, int(h)); err != nil {
				t.Fatalf("post-repair shard %d host %d: %v", s, h, err)
			}
		}
	}
}

// TestBootFailsWhenShardUnrecoverable: with no replication, corrupting the
// only copy of a shard must fail the boot cleanly (never serve garbage).
func TestBootFailsWhenShardUnrecoverable(t *testing.T) {
	dir := t.TempDir()
	cl := newStoreCluster(t, dir, 2, 1, nil)
	snapshotOK(t, cl)
	if err := cl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for _, f := range findShardFiles(t, dir) {
		corruptStoreFile(t, f)
	}
	_, err := NewCluster(ClusterConfig{Threads: 2, StoreDir: dir})
	if err == nil {
		t.Fatalf("boot from fully corrupt store succeeded")
	}
	if !strings.Contains(err.Error(), "no healthy sibling") {
		t.Fatalf("unexpected boot error: %v", err)
	}
}

// TestAuditorDetectsAndRepairsBitflipWhileServing: the background auditor
// on a live cluster finds an injected bitflip, quarantines the file, and
// re-replicates it from a healthy sibling — all while the cluster keeps
// answering byte-identically (queries run from memory; the store is the
// durability layer).
func TestAuditorDetectsAndRepairsBitflipWhileServing(t *testing.T) {
	dir := t.TempDir()
	cl := newStoreCluster(t, dir, 3, 2, func(cfg *ClusterConfig) {
		cfg.AuditInterval = 2 * time.Millisecond
	})
	mutateSome(t, cl, 1)
	want := canonicalAnswers(t, cl)
	snapshotOK(t, cl)

	corruptStoreFile(t, findShardFiles(t, dir)[0])

	deadline := time.Now().Add(20 * time.Second)
	for {
		ss := cl.StoreStats()
		if ss != nil && ss.Audit != nil && ss.Audit.Repaired >= 1 {
			if ss.Audit.Corrupt < 1 || ss.Audit.Quarantined < 1 {
				t.Fatalf("repair without detection: %+v", ss.Audit)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auditor never repaired the bitflip: %+v", cl.StoreStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !cl.Alive() {
		t.Fatalf("cluster died during audit repair")
	}
	assertSameAnswers(t, want, canonicalAnswers(t, cl))

	// The repaired file passes its manifest digest again.
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := st.ReadManifest()
	if err != nil {
		t.Fatal(err)
	}
	for s, e := range m.Shards {
		for _, h := range e.Hosts {
			if _, err := st.ReadShard(m, s, int(h)); err != nil {
				t.Fatalf("post-audit shard %d host %d: %v", s, h, err)
			}
		}
	}
}

// TestSnapshotFailureKeepsOldManifest: an IO failure mid-snapshot must
// swallow into the job result (the compute group survives) and leave the
// previous manifest — and every file it references — untouched, so a crash
// or reboot lands on the old consistent state.
func TestSnapshotFailureKeepsOldManifest(t *testing.T) {
	dir := t.TempDir()
	cl := newStoreCluster(t, dir, 3, 2, nil)
	want := canonicalAnswers(t, cl)
	first := snapshotOK(t, cl)

	// Advance the live state past the persisted snapshot.
	mutateSome(t, cl, 1)

	// Fail the second replica-file write of the next snapshot, leaving a
	// torn partial file at the target path — the worst crash shape: some
	// files of the new epoch written, one half-written, no manifest. Slots
	// write concurrently, so the counter needs its own lock.
	var faultMu sync.Mutex
	n := 0
	cl.store.SetWriteFault(func(path string) error {
		faultMu.Lock()
		n++
		torn := n == 2
		faultMu.Unlock()
		if torn {
			_ = os.WriteFile(path, []byte("torn"), 0o644)
			return fmt.Errorf("injected disk failure")
		}
		return nil
	})
	res, err := cl.Snapshot()
	if err != nil {
		t.Fatalf("failed snapshot killed the run path: %v", err)
	}
	if res.Persisted {
		t.Fatalf("snapshot claimed success under write fault")
	}
	if !strings.Contains(res.Detail, "injected disk failure") {
		t.Fatalf("snapshot detail %q does not carry the fault", res.Detail)
	}
	if !cl.Alive() {
		t.Fatalf("write fault killed the compute group")
	}

	// The old manifest is still the commit point and references only fully
	// written, digest-clean files.
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := st.ReadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != first.Epoch {
		t.Fatalf("manifest epoch moved to %d under a failed snapshot (want %d)", m.Epoch, first.Epoch)
	}
	for s, e := range m.Shards {
		for _, h := range e.Hosts {
			if _, err := st.ReadShard(m, s, int(h)); err != nil {
				t.Fatalf("old manifest references a damaged file (shard %d host %d): %v", s, h, err)
			}
		}
	}

	// A reboot from this crash shape serves the old snapshot's answers.
	cl2 := rebootFromStore(t, dir, nil)
	assertSameAnswers(t, want, canonicalAnswers(t, cl2))
	if err := cl2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Clearing the fault, the retry commits and garbage-collects the torn
	// debris of the failed attempt.
	cl.store.SetWriteFault(nil)
	second := snapshotOK(t, cl)
	if second.Epoch <= first.Epoch {
		t.Fatalf("retried snapshot epoch %d did not advance past %d", second.Epoch, first.Epoch)
	}
	m2, err := st.ReadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if m2.Epoch != second.Epoch {
		t.Fatalf("manifest epoch %d after retry, want %d", m2.Epoch, second.Epoch)
	}
	for _, f := range findShardFiles(t, dir) {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(b, []byte("torn")) {
			t.Fatalf("torn debris %s survived the next committed snapshot's GC", f)
		}
	}
}

// TestStoreShapeMismatchRejected: explicit Ranks/Replicas that contradict
// the manifest fail loudly instead of silently reshaping the cluster.
func TestStoreShapeMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	cl := newStoreCluster(t, dir, 3, 2, nil)
	snapshotOK(t, cl)
	if err := cl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := NewCluster(ClusterConfig{Threads: 2, StoreDir: dir, Ranks: 4}); err == nil {
		t.Fatalf("rank mismatch against manifest accepted")
	}
	if _, err := NewCluster(ClusterConfig{Threads: 2, StoreDir: dir, Replicas: 3}); err == nil {
		t.Fatalf("replica mismatch against manifest accepted")
	}
	// Matching explicit shape is fine.
	cl2, err := NewCluster(ClusterConfig{Threads: 2, StoreDir: dir, Ranks: 3, Replicas: 2})
	if err != nil {
		t.Fatalf("matching explicit shape rejected: %v", err)
	}
	if err := cl2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestSnapshotWithoutStoreRejected pins the no-store behavior of the
// public entry points.
func TestSnapshotWithoutStoreRejected(t *testing.T) {
	cl := newTestCluster(t, 2, nil)
	if _, err := cl.Snapshot(); err == nil {
		t.Fatalf("Snapshot without a store succeeded")
	}
	if cl.StoreStats() != nil {
		t.Fatalf("StoreStats non-nil without a store")
	}
	if cl.BootedFromStore() {
		t.Fatalf("BootedFromStore true without a store")
	}
}

// TestAutoSnapshotAfterCompaction: with AutoSnapshot on, a full compaction
// swap triggers a background snapshot whose manifest captures the
// compacted epoch.
func TestAutoSnapshotAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	cl := newStoreCluster(t, dir, 2, 1, func(cfg *ClusterConfig) {
		cfg.AutoSnapshot = true
	})
	mutateSome(t, cl, 1)
	// Open the reader's handle before the compaction nudges the background
	// snapshot: Open sweeps *.tmp as crash debris, which would delete that
	// snapshot's in-flight shard file from under its rename.
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if !res.Compacted {
		t.Fatalf("compaction did not swap")
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		m, err := st.ReadManifest()
		if err == nil && m.Epoch >= res.Epoch {
			break
		}
		if err != nil && !errors.Is(err, store.ErrNoManifest) {
			t.Fatalf("manifest: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-snapshot never committed (manifest err %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// And the persisted state is bootable.
	want := canonicalAnswers(t, cl)
	if err := cl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	cl2 := rebootFromStore(t, dir, nil)
	assertSameAnswers(t, want, canonicalAnswers(t, cl2))
}
