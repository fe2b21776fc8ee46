package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro"
	"repro/internal/analytics"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/gen"
	"repro/internal/gio"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/serve"
)

// The layer probes run after the traced pass of every workload, on the
// run's own graph, with nothing else going on in the process. Each call
// into a layer sits in a span named "probe.<row>"; a row is the median of
// its spans. Probe answers are checked like any other answer.

// probe runs fn reps times inside spans and stores the median span
// duration in milliseconds as row.
func (r *run) probe(row string, reps int, fn func(rep int) error) error {
	for rep := 0; rep < reps; rep++ {
		if err := r.tr.timed("probe."+row, func() error { return fn(rep) }); err != nil {
			return fmt.Errorf("probe %s: %w", row, err)
		}
	}
	r.layer[row] = median(r.tr.durationsMS("probe."+row, false))
	return nil
}

// checked records a probe answer's oracle check as one more operation.
func (r *run) checked(kind string, job *analytics.Job, res *analytics.JobResult) {
	r.add(opRecord{kind: "probe." + kind, check: func(o *oracle) error { return o.checkJob(job, res) }})
}

// kernelProbe is one direct Cluster.Run row.
type kernelProbe struct {
	row     string
	job     analytics.Job
	reps    int
	sentRow string // where to report the job's exact wire volume, if anywhere
}

func (r *run) kernelProbes(src uint32, multi []uint32) []kernelProbe {
	one := []uint32{src}
	return []kernelProbe{
		{"analytics.bfs_ms", analytics.Job{Analytic: analytics.JobBFS, Sources: one}, 9, "comm.bfs_sent_kib"},
		// The Job.Hybrid policies next to the adaptive default: the rows a
		// deletion audit of the push-only and dense-only paths reads.
		{"analytics.bfs_push_ms", analytics.Job{Analytic: analytics.JobBFS, Sources: one, Hybrid: "push"}, 9, "comm.bfs_push_sent_kib"},
		{"analytics.bfs_dense_ms", analytics.Job{Analytic: analytics.JobBFS, Sources: one, Hybrid: "dense"}, 9, ""},
		{"analytics.sssp_ms", analytics.Job{Analytic: analytics.JobSSSP, Sources: one, MaxWeight: 64, WeightSeed: 1}, 5, "comm.sssp_sent_kib"},
		{"analytics.harmonic_ms", analytics.Job{Analytic: analytics.JobHarmonic, Sources: one}, 9, ""},
		{"analytics.pagerank_ms", analytics.Job{Analytic: analytics.JobPageRank}, 9, "comm.pagerank_sent_kib"},
		{"analytics.wpagerank_ms", analytics.Job{Analytic: analytics.JobPageRankWeighted, MaxWeight: 64, WeightSeed: 1}, 5, ""},
		{"analytics.multibfs8_ms", analytics.Job{Analytic: analytics.JobBFS, Sources: multi}, 5, ""},
		{"analytics.wcc_ms", analytics.Job{Analytic: analytics.JobWCC}, 9, "comm.wcc_sent_kib"},
		{"analytics.kcore_ms", analytics.Job{Analytic: analytics.JobKCore}, 5, ""},
	}
}

// probeKernels runs every kernel row on cl and returns the rank-0
// comp/comm/idle totals over all of them (the paper's Fig. 3 split).
func (r *run) probeKernels(cl *serve.Cluster, probes []kernelProbe) (busy comm.Stats, err error) {
	for i := range probes {
		p := &probes[i]
		p.job.Normalize()
		var res *analytics.JobResult
		var sent uint64
		if err := r.probe(p.row, p.reps, func(int) error {
			out, st, err := cl.Run(&p.job)
			if err != nil {
				return err
			}
			res, sent = out, st.SentBytes
			busy.Comp += st.Rank0.Comp
			busy.CommT += st.Rank0.CommT
			busy.Idle += st.Rank0.Idle
			return nil
		}); err != nil {
			return busy, err
		}
		r.checked(p.row, &p.job, res)
		if p.sentRow != "" {
			r.layer[p.sentRow] = float64(sent) / 1024
		}
	}
	return busy, nil
}

// isolatedVertices returns vertices with no edge at all: a BFS from one is
// the cheapest real job there is, which makes it the probe that isolates
// scheduler and HTTP overhead from kernel time.
func (in *input) isolatedVertices() []uint32 {
	touched := make([]bool, in.n)
	for _, v := range in.edges {
		touched[v] = true
	}
	var out []uint32
	for v, t := range touched {
		if !t {
			out = append(out, uint32(v))
		}
	}
	if len(out) == 0 {
		out = []uint32{0}
	}
	return out
}

const overheadReps = 33

// probeOverheads measures the same trivial job three ways on an idle
// service — Cluster.Run, Scheduler.Submit+Wait, HTTP — and reports the
// differences of the medians.
func (r *run) probeOverheads(svc *service) error {
	iso := r.in.isolatedVertices()
	jobFor := func(k int) *analytics.Job {
		j := &analytics.Job{Analytic: analytics.JobBFS, Sources: []uint32{iso[k%len(iso)]}}
		j.Normalize()
		return j
	}
	if err := r.probe("serve.cluster_run_ms", overheadReps, func(rep int) error {
		_, _, err := svc.cl.Run(jobFor(rep))
		return err
	}); err != nil {
		return err
	}
	// Distinct sources per path, so no probe is answered from the cache.
	if err := r.probe("serve.submit_wait_ms", overheadReps, func(rep int) error {
		_, err := submitWait(svc.sched, jobFor(overheadReps+rep))
		return err
	}); err != nil {
		return err
	}
	if err := r.probe("serve.http_query_ms", overheadReps, func(rep int) error {
		_, err := svc.query(0, 0, jobFor(2*overheadReps+rep))
		return err
	}); err != nil {
		return err
	}
	r.layer["serve.sched_overhead_ms"] = r.layer["serve.submit_wait_ms"] - r.layer["serve.cluster_run_ms"]
	r.layer["serve.http_overhead_ms"] = r.layer["serve.http_query_ms"] - r.layer["serve.submit_wait_ms"]
	delete(r.layer, "serve.submit_wait_ms")
	delete(r.layer, "serve.http_query_ms")
	return nil
}

// probeMutations drives the write path directly: snapshot of the pristine
// graph, mutation batches each followed by a read that pays the overlay
// merge, one compaction, and boots from the snapshot.
func (r *run) probeMutations(cl *serve.Cluster, storeDir string, src uint32) error {
	if err := r.probe("serve.snapshot_ms", 1, func(int) error {
		res, err := cl.Snapshot()
		if err == nil && !res.Persisted {
			err = fmt.Errorf("snapshot not persisted: %s", res.Detail)
		}
		return err
	}); err != nil {
		return err
	}
	r.layer["store.snapshot_mib"] = float64(cl.StoreStats().LastBytes) / (1 << 20)

	muts := &mutationGen{rng: newRNG(r.cfg.seed, 4), in: r.in, dead: make(map[edgeKey]bool)}
	var applied edge.Batch
	mutate := func() error {
		batch := muts.next()
		applied = append(applied, batch...)
		return r.tr.timed("probe.serve.mutate_run_ms", func() error {
			res, _, err := cl.Run(&analytics.Job{Analytic: analytics.JobMutate, Mutations: batch})
			if err == nil && res.Applied != mutateBatchSize {
				err = fmt.Errorf("mutate applied %d of %d records", res.Applied, mutateBatchSize)
			}
			return err
		})
	}
	bfs := &analytics.Job{Analytic: analytics.JobBFS, Sources: []uint32{src}}
	bfs.Normalize()
	pr := &analytics.Job{Analytic: analytics.JobPageRank}
	pr.Normalize()
	for _, read := range []struct {
		row string
		job *analytics.Job
	}{{"analytics.bfs_overlay_ms", bfs}, {"analytics.pagerank_overlay_ms", pr}} {
		// Each read follows a fresh batch, so each pays the merge of an
		// uncompacted overlay; only the read is inside the row's span.
		for rep := 0; rep < 4; rep++ {
			if err := mutate(); err != nil {
				return err
			}
			if err := r.probe(read.row, 1, func(int) error {
				_, _, err := cl.Run(read.job)
				return err
			}); err != nil {
				return err
			}
		}
	}
	r.layer["serve.mutate_run_ms"] = median(r.tr.durationsMS("probe.serve.mutate_run_ms", false))

	// One more batch with no read after it, so the compaction pays for a
	// fresh merge and not only the swap.
	if err := mutate(); err != nil {
		return err
	}
	if err := r.probe("serve.compact_ms", 1, func(int) error {
		res, err := cl.Compact()
		if err == nil && !res.Compacted {
			err = fmt.Errorf("compaction skipped on an idle cluster")
		}
		return err
	}); err != nil {
		return err
	}
	// What the compacted graph answers is checked against the oracle on the
	// input with every probe batch applied.
	wcc := &analytics.Job{Analytic: analytics.JobWCC}
	var after [2]*analytics.JobResult
	for i, job := range []*analytics.Job{bfs, wcc} {
		res, _, err := cl.Run(job)
		if err != nil {
			return fmt.Errorf("%s after compaction: %w", job.Analytic, err)
		}
		after[i] = res
	}
	r.add(opRecord{kind: "probe.compacted", check: func(*oracle) error {
		o := newOracle(r.in.n, applied.ApplyTo(r.in.edges))
		if err := o.checkJob(bfs, after[0]); err != nil {
			return err
		}
		return o.checkJob(wcc, after[1])
	}})
	if err := cl.Close(); err != nil {
		return err
	}
	var boots []*serve.Cluster
	err := r.probe("store.boot_load_s", 3, func(int) error {
		boot, err := serve.NewCluster(serve.ClusterConfig{Threads: threadsPerRank, StoreDir: storeDir})
		if err != nil {
			return err
		}
		boots = append(boots, boot)
		if !boot.BootedFromStore() {
			return fmt.Errorf("boot rebuilt instead of loading the store")
		}
		return nil
	})
	for _, b := range boots {
		if cerr := b.Close(); err == nil {
			err = cerr
		}
	}
	r.layer["store.boot_load_s"] /= 1e3
	return err
}

// probeObs pays for rank-level tracing: a second cluster built with
// ClusterConfig.Trace set runs the same jobs as the untraced one, turn and
// turn about so that a slow minute of the host lands on both sides.
func (r *run) probeObs(plain *serve.Cluster, probes []kernelProbe) error {
	src, err := gio.Open(r.in.path)
	if err != nil {
		return err
	}
	defer src.Close()
	ts := obs.NewTraceSet(0)
	traced, err := serve.NewCluster(serve.ClusterConfig{
		Ranks: ranks, Threads: threadsPerRank, Source: src,
		Partition: partition.Random, Seed: partitionSeed, Epoch: 1, Trace: ts,
	})
	if err != nil {
		return err
	}
	defer traced.Close()
	sides := []struct {
		name string
		cl   *serve.Cluster
		sum  float64 // of the per-kind medians
	}{{"plain", plain, 0}, {"traced", traced, 0}}
	for _, p := range probes {
		switch p.row {
		case "analytics.bfs_ms", "analytics.sssp_ms", "analytics.pagerank_ms":
		default:
			continue
		}
		for rep := 0; rep < 9; rep++ {
			for _, side := range sides {
				if err := r.tr.timed("probe.obs."+side.name+"."+p.job.Analytic, func() error {
					_, _, err := side.cl.Run(&p.job)
					return err
				}); err != nil {
					return fmt.Errorf("probe obs %s %s: %w", side.name, p.job.Analytic, err)
				}
			}
		}
		for i := range sides {
			sides[i].sum += median(r.tr.durationsMS("probe.obs."+sides[i].name+"."+p.job.Analytic, false))
		}
	}
	r.layer["obs.trace_overhead_pct"] = 100 * (sides[1].sum - sides[0].sum) / sides[0].sum
	var recorded, dropped float64
	for _, t := range ts.Tracers() {
		recorded += float64(t.Len())
		dropped += float64(t.Dropped())
	}
	r.layer["obs.spans_recorded"] = recorded
	r.layer["obs.spans_dropped"] = dropped
	return traced.Close()
}

// probeFacade is the paper's own pipeline through the repro facade: Table
// III's build stages, the partitioner, the shard codec, and Table IV's six
// analytics.
func (r *run) probeFacade(hub uint32) error {
	fc := repro.NewCluster(ranks, threadsPerRank)
	defer fc.Close()
	var g *repro.Graph
	if err := r.probe("core.build_total_ms", 1, func(int) (err error) {
		g, err = fc.LoadFile(r.in.path, repro.PartRandom)
		return err
	}); err != nil {
		return err
	}
	delete(r.layer, "core.build_total_ms")
	r.layer["core.build_read_s"] = g.Build.Read.Seconds()
	r.layer["core.build_exchange_s"] = g.Build.Exchange.Seconds()
	r.layer["core.build_convert_s"] = g.Build.Convert.Seconds()

	ans := &facadeAnswers{}
	for _, a := range []struct {
		row  string
		reps int
		run  func() error
	}{
		{"analytics.facade_pagerank_ms", 3, func() (err error) {
			ans.pagerank, err = g.PageRank(repro.PageRankOptions{Iterations: coldPageRankIters, Damping: 0.85})
			return
		}},
		{"analytics.facade_labelprop_ms", 1, func() (err error) { ans.labels, err = g.LabelPropagation(coldLabelPropIters); return }},
		{"analytics.facade_wcc_ms", 3, func() (err error) { ans.wcc, err = g.WCC(); return }},
		{"analytics.facade_harmonic_ms", 3, func() (err error) { ans.harmonic, err = g.Harmonic(hub); return }},
		{"analytics.facade_kcoreapprox_ms", 3, func() (err error) { ans.coreUB, err = g.KCore(coldKCoreLevels); return }},
		{"analytics.facade_largestscc_ms", 3, func() (err error) { ans.sccMember, ans.sccSize, err = g.LargestSCC(); return }},
	} {
		if err := r.probe(a.row, a.reps, func(int) error { return a.run() }); err != nil {
			return err
		}
	}
	r.add(opRecord{kind: "probe.facade", check: func(o *oracle) error { return ans.check(o, hub) }})

	// Shard codec through the facade's Save/LoadGraph: encode and decode of
	// every rank's shard, file system included but not fsync.
	dir := filepath.Join(r.cfg.workDir, "facade-shards")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer removeAll(dir)
	if err := r.probe("core.shard_encode_mib_s", 3, func(int) error { return g.Save(dir) }); err != nil {
		return err
	}
	var bytes int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			bytes += info.Size()
		}
	}
	if err := r.probe("core.shard_load_mib_s", 3, func(int) error {
		_, err := fc.LoadGraph(dir)
		return err
	}); err != nil {
		return err
	}
	mib := float64(bytes) / (1 << 20)
	r.layer["core.shard_encode_mib_s"] = mib / (r.layer["core.shard_encode_mib_s"] / 1e3)
	r.layer["core.shard_load_mib_s"] = mib / (r.layer["core.shard_load_mib_s"] / 1e3)

	// Edge-block partitioner construction (a degree scan and a collective
	// prefix), on the facade's ranks. The random partitioner graphd uses is
	// a hash with nothing to construct; its quality rows follow.
	src, err := gio.Open(r.in.path)
	if err != nil {
		return err
	}
	defer src.Close()
	if err := r.probe("partition.make_edgeblock_ms", 3, func(int) error {
		return fc.Each(func(ctx *core.Ctx) error {
			_, err := core.MakePartitioner(ctx, src, partition.EdgeBlock, r.in.n, partitionSeed)
			return err
		})
	}); err != nil {
		return err
	}
	st := partition.Measure(partition.NewRandom(r.in.n, ranks, partitionSeed), r.in.edges)
	r.layer["partition.edge_cut_ratio"] = st.CutFraction
	r.layer["partition.vertex_imbalance"] = st.MaxVertexImbalance
	r.layer["partition.edge_imbalance"] = st.MaxEdgeImbalance
	return fc.Close()
}

// probeLayouts counts the busiest rank's BFS wire volume at four ranks under
// the 1D edge-block and the 2D checkerboard layouts. Four ranks on two cores
// time nothing useful, so these rows are byte counts only, on a graph a
// quarter the size.
func (r *run) probeLayouts() error {
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: r.in.spec.NumVertices / 4,
		NumEdges: r.in.spec.NumEdges / 4, Seed: r.in.spec.Seed}
	for _, l := range []struct {
		row  string
		kind partition.Kind
	}{{"comm.bfs_1d_max_rank_kib", partition.EdgeBlock}, {"comm.bfs_2d_max_rank_kib", partition.Grid2D}} {
		var mu sync.Mutex
		var busiest uint64
		err := comm.RunLocal(4, func(c *comm.Comm) error {
			ctx := core.NewCtx(c, threadsPerRank)
			pt, err := core.MakePartitioner(ctx, core.SpecSource{Spec: spec}, l.kind, spec.NumVertices, partitionSeed)
			if err != nil {
				return err
			}
			g, _, err := core.Build(ctx, core.SpecSource{Spec: spec}, pt)
			if err != nil {
				return err
			}
			m := obs.NewMetrics()
			if g.Is2D() {
				g.Grid.Group.SetMetrics(m)
			} else {
				c.SetMetrics(m)
			}
			job := &analytics.Job{Analytic: analytics.JobBFS, Sources: []uint32{0}, Dir: "und"}
			if _, err := analytics.Run(ctx, g, job); err != nil {
				return err
			}
			mu.Lock()
			if out := m.Total().WireBytesOut; out > busiest {
				busiest = out
			}
			mu.Unlock()
			return nil
		})
		if err != nil {
			return fmt.Errorf("probe %s: %w", l.row, err)
		}
		r.layer[l.row] = float64(busiest) / 1024
	}
	return nil
}

// freeAddrs reserves n loopback ports by binding and releasing them.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}

// tcpPair dials a two-rank loopback mesh. Another process can grab a
// released port before DialMesh binds it, so a failed attempt is retried
// with fresh ports.
func tcpPair() ([]*comm.Comm, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addrs, err := freeAddrs(ranks)
		if err != nil {
			return nil, err
		}
		comms := make([]*comm.Comm, ranks)
		errs := make([]error, ranks)
		var wg sync.WaitGroup
		for rank := range comms {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				tr, err := comm.DialMesh(rank, addrs, 5*time.Second)
				if err != nil {
					errs[rank] = err
					return
				}
				comms[rank] = comm.New(tr)
			}(rank)
		}
		wg.Wait()
		lastErr = nil
		for _, err := range errs {
			if err != nil {
				lastErr = err
			}
		}
		if lastErr == nil {
			return comms, nil
		}
		for _, c := range comms {
			if c != nil {
				c.Close()
			}
		}
	}
	return nil, lastErr
}

// probeCollectives times single collective rounds between two ranks over
// the in-process transport and over loopback TCP. The 1 MiB rounds are
// dominated by the codec and the copy, the small ones by synchronisation.
func (r *run) probeCollectives() error {
	inproc := make([]*comm.Comm, ranks)
	for i, tr := range comm.NewLocalGroup(ranks) {
		inproc[i] = comm.New(tr)
	}
	tcp, err := tcpPair()
	if err != nil {
		return fmt.Errorf("probe comm: tcp mesh: %w", err)
	}
	for _, g := range []struct {
		name  string
		comms []*comm.Comm
	}{{"inproc", inproc}, {"tcp", tcp}} {
		var rows []string
		// round times fn on rank 0, once per round, each round entered
		// together.
		round := func(c *comm.Comm, row string, rounds int, fn func() error) error {
			if c.Rank() == 0 {
				rows = append(rows, row)
			}
			for i := 0; i < rounds; i++ {
				if err := c.Barrier(); err != nil {
					return err
				}
				id := int64(0)
				if c.Rank() == 0 {
					id = r.tr.start(0, 0, "probe."+row)
				}
				if err := fn(); err != nil {
					return err
				}
				r.tr.end(id)
			}
			return nil
		}
		err := comm.RunOn(g.comms, func(c *comm.Comm) error {
			for _, sz := range []struct {
				label  string
				words  int
				rounds int
			}{{"4KiB", 4 << 10 / 8, 200}, {"1MiB", 1 << 20 / 8, 50}} {
				send := make([]uint64, sz.words*ranks)
				counts := []int{sz.words, sz.words}
				if err := round(c, fmt.Sprintf("comm.%s_alltoallv_%s_us", g.name, sz.label), sz.rounds, func() error {
					_, _, err := comm.Alltoallv(c, send, counts)
					return err
				}); err != nil {
					return err
				}
			}
			if err := round(c, fmt.Sprintf("comm.%s_allreduce_us", g.name), 200, func() error {
				_, err := comm.Allreduce(c, uint64(c.Rank()), comm.OpSum)
				return err
			}); err != nil {
				return err
			}
			vals := make([]uint64, 64<<10/8)
			return round(c, fmt.Sprintf("comm.%s_allgatherv_64KiB_us", g.name), 100, func() error {
				_, _, err := comm.Allgatherv(c, vals)
				return err
			})
		})
		for _, c := range g.comms {
			c.Close()
		}
		if err != nil {
			return fmt.Errorf("probe comm %s: %w", g.name, err)
		}
		for _, row := range rows {
			r.layer[row] = 1e3 * median(r.tr.durationsMS("probe."+row, false))
		}
	}
	return nil
}

// probeLayers fills every workload-independent per-layer row.
func (r *run) probeLayers() error {
	in := r.in
	r.layer["gen.rmat_medges_s"] = float64(in.edges.Len()) / 1e6 / in.genTime.Seconds()
	fileMiB := float64(in.edges.Len()) * 8 / (1 << 20)
	r.layer["gio.write_mib_s"] = fileMiB / in.writeTime.Seconds()
	if err := r.probe("gio.read_mib_s", 3, func(int) error {
		rd, err := gio.Open(in.path)
		if err != nil {
			return err
		}
		defer rd.Close()
		_, err = rd.ReadChunk(0, rd.NumEdges())
		return err
	}); err != nil {
		return err
	}
	r.layer["gio.read_mib_s"] = fileMiB / (r.layer["gio.read_mib_s"] / 1e3)

	pool := in.sourcePool(newRNG(r.cfg.seed, 1))
	src := pool[0]
	multi := pool[:min(8, len(pool))]
	hub := in.hubVertex()

	storeDir := filepath.Join(r.cfg.workDir, "probe-store")
	svc, err := startService(in, storeDir, r.tr)
	if err != nil {
		return err
	}
	defer svc.close()
	probes := r.kernelProbes(src, multi)
	busy, err := r.probeKernels(svc.cl, probes)
	if err != nil {
		return err
	}
	if total := busy.Total().Seconds(); total > 0 {
		r.layer["analytics.comp_share"] = busy.Comp.Seconds() / total
		r.layer["analytics.comm_share"] = busy.CommT.Seconds() / total
		r.layer["analytics.idle_share"] = busy.Idle.Seconds() / total
	}
	if err := r.probeObs(svc.cl, probes); err != nil {
		return err
	}
	if err := r.probeOverheads(svc); err != nil {
		return err
	}
	if err := r.probeMutations(svc.cl, storeDir, src); err != nil {
		return err
	}
	if err := svc.close(); err != nil {
		return err
	}
	if err := r.probeFacade(hub); err != nil {
		return err
	}
	if err := r.probeLayouts(); err != nil {
		return err
	}
	return r.probeCollectives()
}
