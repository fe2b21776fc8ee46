package serve

import (
	"bytes"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/gen"
	"repro/internal/partition"
)

// Differential rebuild-equivalence battery for streaming ingest: a cluster
// that reached a graph through /v1/mutate-style batches must answer every
// analytic byte-identically to a cluster built from scratch from the
// mutated edge list. Both clusters share the partitioner (Random and
// VertexBlock depend only on (n, seed), not on the edge list, so the
// shards line up) and the rebuilt cluster reads the list in (src, dst)
// order, so its rows are in the order merged overlays always have and even
// summation-order-sensitive kernels (PageRank, weighted PageRank) must
// match bitwise.

// ingestSpec is the shared base graph for the ingest batteries.
var ingestSpec = gen.Spec{Kind: gen.RMAT, NumVertices: 300, NumEdges: 2000, Seed: 41}

// ingestQueries covers every analytic job kind once.
func ingestQueries() []*analytics.Job {
	mk := func(j analytics.Job) *analytics.Job {
		cp := j
		cp.Normalize()
		return &cp
	}
	return []*analytics.Job{
		mk(analytics.Job{Analytic: analytics.JobBFS, Sources: []uint32{3}}),
		mk(analytics.Job{Analytic: analytics.JobSSSP, Sources: []uint32{5}, MaxWeight: 9, WeightSeed: 17}),
		mk(analytics.Job{Analytic: analytics.JobWCC}),
		mk(analytics.Job{Analytic: analytics.JobPageRank, Iterations: 8}),
		mk(analytics.Job{Analytic: analytics.JobKCore}),
		mk(analytics.Job{Analytic: analytics.JobPageRankWeighted, Iterations: 6, MaxWeight: 7, WeightSeed: 4}),
		mk(analytics.Job{Analytic: analytics.JobLabelProp, Iterations: 6}),
		mk(analytics.Job{Analytic: analytics.JobHarmonic, Sources: []uint32{11}}),
	}
}

// ingestSchedule builds an adversarial batch sequence against base:
// duplicate inserts, deletes of missing edges, deletes of live edges with
// re-inserts, and self-loop churn. Returns the batches and the oracle edge
// list after each batch.
func ingestSchedule(seed int64, n uint32, base edge.List, batches, perBatch int) ([]edge.Batch, []edge.List) {
	rng := rand.New(rand.NewSource(seed))
	cur := append(edge.List(nil), base...)
	var out []edge.Batch
	var oracles []edge.List
	for b := 0; b < batches; b++ {
		var batch edge.Batch
		for len(batch) < perBatch {
			switch rng.Intn(8) {
			case 0, 1, 2:
				batch = append(batch, edge.Mutation{Op: edge.OpInsert, Src: uint32(rng.Intn(int(n))), Dst: uint32(rng.Intn(int(n)))})
			case 3, 4:
				if cur.Len() > 0 {
					i := rng.Intn(cur.Len())
					m := edge.Mutation{Op: edge.OpDelete, Src: cur.Src(i), Dst: cur.Dst(i)}
					batch = append(batch, m)
					if rng.Intn(2) == 0 {
						batch = append(batch, edge.Mutation{Op: edge.OpInsert, Src: m.Src, Dst: m.Dst})
					}
				}
			case 5:
				batch = append(batch, edge.Mutation{Op: edge.OpDelete, Src: uint32(rng.Intn(int(n))), Dst: uint32(rng.Intn(int(n)))})
			case 6:
				if cur.Len() > 0 {
					i := rng.Intn(cur.Len())
					batch = append(batch, edge.Mutation{Op: edge.OpInsert, Src: cur.Src(i), Dst: cur.Dst(i)})
				}
			case 7:
				v := uint32(rng.Intn(int(n)))
				op := edge.OpInsert
				if rng.Intn(2) == 0 {
					op = edge.OpDelete
				}
				batch = append(batch, edge.Mutation{Op: op, Src: v, Dst: v})
			}
		}
		cur = batch.ApplyTo(cur)
		out = append(out, batch)
		oracles = append(oracles, cur)
	}
	return out, oracles
}

// ingestBase generates the shared base edge list once per test.
func ingestBase(t *testing.T) edge.List {
	t.Helper()
	base, err := ingestSpec.GenerateAll()
	if err != nil {
		t.Fatalf("generating base edges: %v", err)
	}
	return base
}

// sortedEdges returns l's pairs in (src, dst) order. A build keeps each row
// in input order, so a sorted list builds every row in the order a merge
// writes: answers are then bitwise comparable with a mutated cluster's,
// float sums included.
func sortedEdges(l edge.List) edge.List {
	keys := make([]uint64, l.Len())
	for i := range keys {
		keys[i] = uint64(l.Src(i))<<32 | uint64(l.Dst(i))
	}
	slices.Sort(keys)
	out := make(edge.List, 0, len(l))
	for _, k := range keys {
		out.Push(uint32(k>>32), uint32(k))
	}
	return out
}

// newIngestCluster builds a cluster over an explicit edge list with the
// shared ingest geometry; sorted builds it from the list in (src, dst)
// order (see sortedEdges).
func newIngestCluster(t *testing.T, list edge.List, kind partition.Kind, sorted bool, transports TransportFactory) *Cluster {
	t.Helper()
	if sorted {
		list = sortedEdges(list)
	}
	cl, err := NewCluster(ClusterConfig{
		Ranks:       4,
		Threads:     1,
		Source:      core.ListSource{Edges: list},
		Partition:   kind,
		Seed:        7,
		Epoch:       1,
		Replicas:    2,
		NumVertices: ingestSpec.NumVertices,
		Transports:  transports,
	})
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

// submitWait pushes one job through a running scheduler and waits for it.
func submitWait(t *testing.T, s *Scheduler, job *analytics.Job) RequestView {
	t.Helper()
	cp := *job
	id, err := s.Submit(&cp, time.Now().Add(2*time.Minute))
	if err != nil {
		t.Fatalf("submit %s: %v", job.Analytic, err)
	}
	return waitDone(t, s, id)
}

// mutateAll streams every batch through the scheduler, asserting each ack
// advances the epoch and reports the batch's record count.
func mutateAll(t *testing.T, cl *Cluster, s *Scheduler, batches []edge.Batch, oracles []edge.List) {
	t.Helper()
	for bi, batch := range batches {
		before := cl.Epoch()
		view := submitWait(t, s, &analytics.Job{Analytic: analytics.JobMutate, Mutations: batch})
		if view.State != StateDone {
			t.Fatalf("batch %d: state %s (err %q)", bi, view.State, view.Err)
		}
		if view.Result.Applied != uint64(len(batch)) {
			t.Fatalf("batch %d: applied %d, want %d", bi, view.Result.Applied, len(batch))
		}
		if view.Result.Epoch <= before {
			t.Fatalf("batch %d: epoch %d did not advance past %d", bi, view.Result.Epoch, before)
		}
		if got, want := cl.NumEdges(), uint64(oracles[bi].Len()); got != want {
			t.Fatalf("batch %d: NumEdges %d, oracle %d", bi, got, want)
		}
	}
}

// answersOn runs every query and returns its canonical bytes.
func answersOn(t *testing.T, s *Scheduler, queries []*analytics.Job) [][]byte {
	t.Helper()
	out := make([][]byte, len(queries))
	for i, q := range queries {
		view := submitWait(t, s, q)
		if view.State != StateDone {
			t.Fatalf("query %d (%s): state %s (err %q)", i, q.Analytic, view.State, view.Err)
		}
		out[i] = view.Result.Canonical()
	}
	return out
}

// TestServeDifferentialRebuildEquivalence is the acceptance battery: after
// a seeded mutation schedule streamed through the scheduler, every job
// kind's answer on the mutated cluster is byte-identical to the same job
// on a cluster rebuilt from scratch from the mutated edge list — on the
// in-process transport for two partitionings, and on the TCP mesh. A
// compaction cycle then swaps the merged overlays in as new bases and the
// answers must not change.
func TestServeDifferentialRebuildEquivalence(t *testing.T) {
	base := ingestBase(t)
	batches, oracles := ingestSchedule(13, ingestSpec.NumVertices, base, 3, 50)
	final := oracles[len(oracles)-1]
	queries := ingestQueries()

	cases := []struct {
		name string
		kind partition.Kind
		tf   func(t *testing.T) TransportFactory
	}{
		{"inproc/random", partition.Random, nil},
		{"inproc/vertexblock", partition.VertexBlock, nil},
		{"tcp/random", partition.Random, tcpFactory},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var mutTF, rebTF TransportFactory
			if tc.tf != nil {
				mutTF, rebTF = tc.tf(t), tc.tf(t)
			}
			mut := newIngestCluster(t, base, tc.kind, false, mutTF)
			ms := NewScheduler(mut, chaosSchedConfig())
			ms.Start()
			defer ms.Close()
			mutateAll(t, mut, ms, batches, oracles)
			// Epoch arithmetic without auto-compaction: the seed epoch plus
			// one bump per acknowledged batch (and one per swap, below).
			if want := uint64(1 + len(batches)); mut.Epoch() != want {
				t.Fatalf("epoch %d after %d batches from seed epoch 1, want %d", mut.Epoch(), len(batches), want)
			}
			got := answersOn(t, ms, queries)

			reb := newIngestCluster(t, final, tc.kind, true, rebTF)
			rs := NewScheduler(reb, chaosSchedConfig())
			rs.Start()
			defer rs.Close()
			if mut.NumVertices() != reb.NumVertices() {
				t.Fatalf("vertex counts diverged: mutated %d, rebuilt %d", mut.NumVertices(), reb.NumVertices())
			}
			if mut.NumEdges() != reb.NumEdges() {
				t.Fatalf("edge counts diverged: mutated %d, rebuilt %d", mut.NumEdges(), reb.NumEdges())
			}
			want := answersOn(t, rs, queries)
			for i := range queries {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("%s: mutated cluster answered %s, rebuilt answered %s",
						queries[i].Analytic, got[i], want[i])
				}
			}
			// The same reads over the merged overlays, each on a cold and
			// then on a warm plan cache, past the scheduler's result cache.
			for i, cw := range coldWarmAnswers(t, mut, queries) {
				if !bytes.Equal(cw, want[i]) {
					t.Fatalf("%s: cold/warm plan answered %s, rebuilt answered %s", queries[i].Analytic, cw, want[i])
				}
			}

			// Compact: the merged overlays become the new bases. The logical
			// graph is unchanged, so every answer must survive the swap
			// byte-for-byte, while the swap bumps the epoch once.
			epochBefore := mut.Epoch()
			res, err := mut.Compact()
			if err != nil {
				t.Fatalf("Compact: %v", err)
			}
			if !res.Compacted || res.Applied != uint64(mut.Size()) {
				t.Fatalf("compact result %+v, want full swap of %d shards", res, mut.Size())
			}
			if mut.Epoch() != epochBefore+1 {
				t.Fatalf("epoch %d after compaction, want %d (one bump for the swap)", mut.Epoch(), epochBefore+1)
			}
			after := answersOn(t, ms, queries)
			for i := range queries {
				if !bytes.Equal(after[i], got[i]) {
					t.Fatalf("%s: answer changed across compaction: %s -> %s",
						queries[i].Analytic, got[i], after[i])
				}
			}
			for i, cw := range coldWarmAnswers(t, mut, queries) {
				if !bytes.Equal(cw, got[i]) {
					t.Fatalf("%s: cold/warm plan after compaction answered %s, want %s", queries[i].Analytic, cw, got[i])
				}
			}
		})
	}
}

// TestFailoverServesMutatedBackup pins the backup apply path: after
// streaming mutations, killing a host promotes its sibling's backup — which
// was kept current by applying each broadcast batch — and every answer
// stays byte-identical to the pre-failover mutated cluster.
func TestFailoverServesMutatedBackup(t *testing.T) {
	base := ingestBase(t)
	batches, oracles := ingestSchedule(29, ingestSpec.NumVertices, base, 2, 40)
	queries := ingestQueries()

	cl := newIngestCluster(t, base, partition.Random, false, nil)
	s := NewScheduler(cl, chaosSchedConfig())
	s.Start()
	defer s.Close()
	mutateAll(t, cl, s, batches, oracles)
	healthy := answersOn(t, s, queries)
	s.Close()

	if err := cl.Kill(1); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	// A fresh scheduler's cache is cold, so every post-kill query reaches
	// the cluster: the first one consumes the abort and drives the
	// failover, the promoted backup answers the rest.
	s2 := NewScheduler(cl, chaosSchedConfig())
	s2.Start()
	defer s2.Close()
	degraded := answersOn(t, s2, queries)
	if cl.Generation() == 0 {
		t.Fatal("kill did not advance the generation")
	}
	for i := range queries {
		if !bytes.Equal(degraded[i], healthy[i]) {
			t.Fatalf("%s: promoted backup diverged:\n  degraded: %s\n  healthy:  %s",
				queries[i].Analytic, degraded[i], healthy[i])
		}
	}
	if got, want := cl.NumEdges(), uint64(oracles[len(oracles)-1].Len()); got != want {
		t.Fatalf("NumEdges after failover %d, oracle %d", got, want)
	}
}

// TestMutateReplayIsExactlyOnce pins the replay watermark end to end: re-
// running a mutate job with an already-applied MutationID acknowledges
// without changing the graph — the failover requeue path replays batches
// through exactly this door.
func TestMutateReplayIsExactlyOnce(t *testing.T) {
	base := ingestBase(t)
	cl := newIngestCluster(t, base, partition.Random, false, nil)

	batch := edge.Batch{
		{Op: edge.OpInsert, Src: 1, Dst: 2},
		{Op: edge.OpDelete, Src: base.Src(0), Dst: base.Dst(0)},
	}
	job := &analytics.Job{Analytic: analytics.JobMutate, Mutations: batch}
	res, _, err := cl.Run(job)
	if err != nil {
		t.Fatalf("mutate: %v", err)
	}
	if job.MutationID == 0 {
		t.Fatal("Run did not assign a mutation id")
	}
	mAfter := cl.NumEdges()

	// Same job pointer, same id: the replica watermarks skip it whole.
	res2, _, err := cl.Run(job)
	if err != nil {
		t.Fatalf("replayed mutate: %v", err)
	}
	if cl.NumEdges() != mAfter {
		t.Fatalf("replay changed edge count: %d -> %d", mAfter, cl.NumEdges())
	}
	if res2.Applied != res.Applied {
		t.Fatalf("replay ack applied %d, want %d", res2.Applied, res.Applied)
	}

	// A fresh id with the same records is NOT a replay, but the batch is
	// idempotent by semantics (insert of a live edge, delete of a missing
	// edge are no-ops), so the graph still must not change.
	job2 := &analytics.Job{Analytic: analytics.JobMutate, Mutations: batch}
	if _, _, err := cl.Run(job2); err != nil {
		t.Fatalf("re-submitted mutate: %v", err)
	}
	if cl.NumEdges() != mAfter {
		t.Fatalf("idempotent re-submit changed edge count: %d -> %d", mAfter, cl.NumEdges())
	}
}

// TestMutateCollectives pins the transport rounds one mutate job costs
// slot 0: the job broadcast, the two live-edge Allreduces (the ack
// barrier) and the job's wire-volume Allreduce. The broadcast already
// puts the whole batch on every rank, so applying it routes nothing.
// Slot 0 is counted alone because it enters no round between jobs, while
// the other slots wait for the next job inside the broadcast's.
func TestMutateCollectives(t *testing.T) {
	const mutateRounds = 4
	base := ingestBase(t)
	batches, _ := ingestSchedule(5, ingestSpec.NumVertices, base, 1, 40)
	for _, tc := range []struct {
		name string
		tf   func(t *testing.T) TransportFactory
	}{{"inproc", nil}, {"tcp", tcpFactory}} {
		t.Run(tc.name, func(t *testing.T) {
			var rounds atomic.Uint64
			cfg := ClusterConfig{
				Ranks:       4,
				Threads:     1,
				Source:      core.ListSource{Edges: base},
				Partition:   partition.Random,
				Seed:        7,
				Replicas:    2,
				NumVertices: ingestSpec.NumVertices,
				WrapTransport: func(gen uint64, slot int, tr comm.Transport) comm.Transport {
					if slot != 0 {
						return tr
					}
					return &countingTransport{tr: tr, n: &rounds}
				},
			}
			if tc.tf != nil {
				cfg.Transports = tc.tf(t)
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
			before := rounds.Load()
			if _, _, err := cl.Run(&analytics.Job{Analytic: analytics.JobMutate, Mutations: batches[0]}); err != nil {
				t.Fatalf("mutate: %v", err)
			}
			if got := rounds.Load() - before; got != mutateRounds {
				t.Fatalf("one mutate job took %d transport rounds on slot 0, want %d", got, mutateRounds)
			}
		})
	}
}

// TestCompactIsSkippedWhenRaced pins the version guard: a compact job
// whose CompactVersion no longer matches the overlay version (a batch
// landed after the merge) swaps nothing on any shard.
func TestCompactIsSkippedWhenRaced(t *testing.T) {
	base := ingestBase(t)
	cl := newIngestCluster(t, base, partition.Random, false, nil)

	b1 := edge.Batch{{Op: edge.OpInsert, Src: 1, Dst: 2}}
	if _, _, err := cl.Run(&analytics.Job{Analytic: analytics.JobMutate, Mutations: b1}); err != nil {
		t.Fatalf("mutate: %v", err)
	}
	// Materialize at version 1, then land batch 2 before the swap job.
	states, err := cl.servedStates()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range states {
		if err := st.materialize(); err != nil {
			t.Fatalf("materialize: %v", err)
		}
	}
	b2 := edge.Batch{{Op: edge.OpInsert, Src: 3, Dst: 4}}
	if _, _, err := cl.Run(&analytics.Job{Analytic: analytics.JobMutate, Mutations: b2}); err != nil {
		t.Fatalf("mutate: %v", err)
	}
	res, _, err := cl.Run(&analytics.Job{Analytic: analytics.JobCompact, CompactVersion: 1})
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	if res.Compacted || res.Applied != 0 {
		t.Fatalf("stale compact swapped %d shards (compacted=%v), want none", res.Applied, res.Compacted)
	}
	// The current version still compacts.
	res2, err := cl.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if !res2.Compacted {
		t.Fatalf("fresh compact did not swap: %+v", res2)
	}
}

// TestCompactSwapsEveryShardOrNone pins the agreement step of the swap: the
// overlay version alone does not make a shard swappable (a background merge
// that snapshotted one shard just before an in-flight batch reached it
// stores nothing there, while its peers merge just after the batch), so a
// compact job at the right version with one materialization missing must
// swap nothing — a partial swap could never be completed into a full one,
// which is how auto-compaction used to "never run".
func TestCompactSwapsEveryShardOrNone(t *testing.T) {
	base := ingestBase(t)
	cl := newIngestCluster(t, base, partition.Random, false, nil)

	batches, _ := ingestSchedule(5, ingestSpec.NumVertices, base, 1, 40)
	if _, _, err := cl.Run(&analytics.Job{Analytic: analytics.JobMutate, Mutations: batches[0]}); err != nil {
		t.Fatalf("mutate: %v", err)
	}
	states, err := cl.servedStates()
	if err != nil {
		t.Fatal(err)
	}
	// Materialize every shard but one whose overlay is non-empty.
	skipped := false
	for _, st := range states {
		st.mu.Lock()
		empty := st.delta.Empty()
		st.mu.Unlock()
		if !skipped && !empty {
			skipped = true
			continue
		}
		if err := st.materialize(); err != nil {
			t.Fatalf("materialize: %v", err)
		}
	}
	if !skipped {
		t.Fatal("the batch left every overlay empty")
	}
	res, _, err := cl.Run(&analytics.Job{Analytic: analytics.JobCompact, CompactVersion: 1})
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	if res.Compacted || res.Applied != 0 {
		t.Fatalf("compact with one merge missing swapped %d shards (compacted=%v), want none", res.Applied, res.Compacted)
	}
	res2, err := cl.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if !res2.Compacted || res2.Applied != uint64(cl.Size()) {
		t.Fatalf("full compact after the skipped one: %+v", res2)
	}
}

// TestMutatingJobsNeverCached pins scheduler behavior: two identical
// mutate submissions both reach the cluster (no cache hit, no dedupe) and
// each advances the epoch.
func TestMutatingJobsNeverCached(t *testing.T) {
	base := ingestBase(t)
	cl := newIngestCluster(t, base, partition.Random, false, nil)
	s := NewScheduler(cl, chaosSchedConfig())
	s.Start()
	defer s.Close()

	batch := edge.Batch{{Op: edge.OpInsert, Src: 7, Dst: 8}}
	v1 := submitWait(t, s, &analytics.Job{Analytic: analytics.JobMutate, Mutations: batch})
	v2 := submitWait(t, s, &analytics.Job{Analytic: analytics.JobMutate, Mutations: batch})
	if v1.State != StateDone || v2.State != StateDone {
		t.Fatalf("mutate states %s/%s", v1.State, v2.State)
	}
	if v1.Cached || v2.Cached {
		t.Fatal("a mutate ack was served from the result cache")
	}
	if v2.Result.Epoch <= v1.Result.Epoch {
		t.Fatalf("second mutate epoch %d did not advance past %d", v2.Result.Epoch, v1.Result.Epoch)
	}
	st := s.Stats()
	if st.CacheHits != 0 || st.DedupeHits != 0 {
		t.Fatalf("mutate submissions hit the cache: %+v", st)
	}
}

// TestAutoCompaction pins the background manager: with AutoCompact: 2,
// streaming four batches triggers compaction without any admin call.
func TestAutoCompaction(t *testing.T) {
	base := ingestBase(t)
	cl, err := NewCluster(ClusterConfig{
		Ranks:       2,
		Threads:     1,
		Source:      core.ListSource{Edges: base},
		Partition:   partition.Random,
		Seed:        7,
		Epoch:       1,
		NumVertices: ingestSpec.NumVertices,
		AutoCompact: 2,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer func() {
		if err := cl.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	s := NewScheduler(cl, chaosSchedConfig())
	s.Start()
	defer s.Close()
	batches, oracles := ingestSchedule(3, ingestSpec.NumVertices, base, 4, 20)
	mutateAll(t, cl, s, batches, oracles)
	deadline := time.Now().Add(30 * time.Second)
	for cl.IngestStats().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("auto-compaction never ran")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The compacted cluster still answers correctly.
	view := submitWait(t, s, &analytics.Job{Analytic: analytics.JobWCC})
	if view.State != StateDone {
		t.Fatalf("post-compaction query: %s (%s)", view.State, view.Err)
	}
	if got, want := cl.NumEdges(), uint64(oracles[len(oracles)-1].Len()); got != want {
		t.Fatalf("NumEdges %d, oracle %d", got, want)
	}
}

// TestAutoCompactionSurvivesLateAgreement pins auto-compaction when one
// slot records a batch's agreed edge count late. Rank 0 counts the batch
// and nudges the compaction manager as soon as the count is agreed; the
// manager's background merge of the lagging slot pairs the new overlay
// with the old count and is dropped when the count lands, whether the
// merge had stored its result by then or was still running. The swap must
// not fail for it: the batch that spent the budget is the last one, so
// nothing would nudge the manager again.
func TestAutoCompactionSurvivesLateAgreement(t *testing.T) {
	for _, tc := range []struct {
		name       string
		mergeDelay time.Duration // past the late count: the merge straddles it
	}{{"stored", 0}, {"in-flight", 60 * time.Millisecond}} {
		t.Run(tc.name, func(t *testing.T) {
			agreeHook = func(rank int) {
				if rank == 1 {
					time.Sleep(20 * time.Millisecond)
				}
			}
			if tc.mergeDelay > 0 {
				mergeHook = func() { time.Sleep(tc.mergeDelay) }
			}
			defer func() { agreeHook, mergeHook = nil, nil }()
			base := ingestBase(t)
			cl, err := NewCluster(ClusterConfig{
				Ranks:       2,
				Threads:     1,
				Source:      core.ListSource{Edges: base},
				Partition:   partition.Random,
				Seed:        7,
				Epoch:       1,
				NumVertices: ingestSpec.NumVertices,
				AutoCompact: 2,
			})
			if err != nil {
				t.Fatalf("NewCluster: %v", err)
			}
			defer func() {
				if err := cl.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			}()
			s := NewScheduler(cl, chaosSchedConfig())
			s.Start()
			defer s.Close()
			batches, oracles := ingestSchedule(5, ingestSpec.NumVertices, base, 2, 20)
			mutateAll(t, cl, s, batches, oracles)
			deadline := time.Now().Add(10 * time.Second)
			for cl.IngestStats().Compactions == 0 {
				if time.Now().After(deadline) {
					t.Fatal("auto-compaction never ran")
				}
				time.Sleep(10 * time.Millisecond)
			}
			if got, want := cl.NumEdges(), uint64(oracles[len(oracles)-1].Len()); got != want {
				t.Fatalf("NumEdges %d, oracle %d", got, want)
			}
		})
	}
}

// TestMutateNeverCachesStaleEdgeCount pins the edge count a cached merge
// carries. A mutate applies its batch, then releases the replica for the
// two Allreduces that agree on the new global edge count; a background
// materialization in that gap merges the new overlay with the old count.
// Such a merge must never outlive the agreement, or compaction promotes it
// to the base and a snapshot writes its stale count into the shard file.
func TestMutateNeverCachesStaleEdgeCount(t *testing.T) {
	base := ingestBase(t)
	cl := newIngestCluster(t, base, partition.Random, false, nil)
	states, err := cl.servedStates()
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			for _, st := range states {
				if err := st.materialize(); err != nil {
					done <- err
					return
				}
			}
		}
	}()

	rng := rand.New(rand.NewSource(13))
	n := int(ingestSpec.NumVertices)
	stale := 0
	for b := 0; b < 300; b++ {
		batch := make(edge.Batch, 5)
		for i := range batch {
			op := edge.OpInsert
			if rng.Intn(3) == 0 {
				op = edge.OpDelete
			}
			batch[i] = edge.Mutation{Op: op, Src: uint32(rng.Intn(n)), Dst: uint32(rng.Intn(n))}
		}
		if _, _, err := cl.Run(&analytics.Job{Analytic: analytics.JobMutate, Mutations: batch}); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		agreed := cl.NumEdges()
		for s, st := range states {
			st.mu.Lock()
			if st.merged != nil && st.merged.MGlobal != agreed {
				if stale == 0 {
					t.Errorf("batch %d: shard %d caches a merge of %d edges, the group agreed on %d",
						b, s, st.merged.MGlobal, agreed)
				}
				stale++
			}
			st.mu.Unlock()
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("materialize: %v", err)
	}
	if stale > 0 {
		t.Fatalf("%d stale cached merges over 300 batches", stale)
	}
}
