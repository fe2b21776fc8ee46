package main

import "fmt"

// decl declares one metric: the name BENCHMARK.json lists, its unit, and
// which way is better. The package test holds these lists and the manifest
// equal, so a run can never emit a name the driver was not told about.
type decl struct {
	name, unit, better string
}

// endToEndMetrics are measured by an untraced run, on every workload.
var endToEndMetrics = []decl{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"resident_mib", "MiB", "lower"},
}

// perLayer are the rows of a traced run. The first block comes from the
// traced pass of the workload itself (0 where the workload has no such
// operation); the rest from the layer probes that follow it.
var perLayer = []decl{
	{"bench.traced_ops_per_s", "1/s", "higher"},
	{"bench.peak_rss_mib", "MiB", "lower"},
	{"serve.http_self_ms", "ms", "lower"},
	{"serve.handler_p50_ms", "ms", "lower"},
	{"serve.waited_p50_ms", "ms", "lower"},
	{"serve.mutate_p50_ms", "ms", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.queries_per_job", "ratio", "higher"},
	{"serve.max_batch", "count", "higher"},
	{"serve.dedupe_hits", "count", "higher"},
	{"serve.rejected_429", "count", "lower"},
	{"serve.mallocs_per_op", "count", "lower"},
	{"serve.alloc_kib_per_op", "KiB", "lower"},
	{"serve.gc_pause_ms", "ms", "lower"},
	{"cold.build_s", "s", "lower"},
	{"cold.snapshot_s", "s", "lower"},
	{"cold.restore_s", "s", "lower"},
	{"cold.facade_load_s", "s", "lower"},
	{"cold.analytics_s", "s", "lower"},

	{"serve.cluster_run_ms", "ms", "lower"},
	{"serve.sched_overhead_ms", "ms", "lower"},
	{"serve.http_overhead_ms", "ms", "lower"},
	{"serve.mutate_run_ms", "ms", "lower"},
	{"serve.compact_ms", "ms", "lower"},
	{"serve.snapshot_ms", "ms", "lower"},

	{"analytics.bfs_ms", "ms", "lower"},
	{"analytics.bfs_push_ms", "ms", "lower"},
	{"analytics.bfs_dense_ms", "ms", "lower"},
	{"analytics.sssp_ms", "ms", "lower"},
	{"analytics.harmonic_ms", "ms", "lower"},
	{"analytics.pagerank_ms", "ms", "lower"},
	{"analytics.wpagerank_ms", "ms", "lower"},
	{"analytics.multibfs8_ms", "ms", "lower"},
	{"analytics.wcc_ms", "ms", "lower"},
	{"analytics.kcore_ms", "ms", "lower"},
	{"analytics.bfs_overlay_ms", "ms", "lower"},
	{"analytics.pagerank_overlay_ms", "ms", "lower"},
	{"analytics.comp_share", "ratio", "higher"},
	{"analytics.comm_share", "ratio", "lower"},
	{"analytics.idle_share", "ratio", "lower"},
	{"analytics.facade_pagerank_ms", "ms", "lower"},
	{"analytics.facade_labelprop_ms", "ms", "lower"},
	{"analytics.facade_wcc_ms", "ms", "lower"},
	{"analytics.facade_harmonic_ms", "ms", "lower"},
	{"analytics.facade_kcoreapprox_ms", "ms", "lower"},
	{"analytics.facade_largestscc_ms", "ms", "lower"},

	{"comm.bfs_sent_kib", "KiB", "lower"},
	{"comm.bfs_push_sent_kib", "KiB", "lower"},
	{"comm.sssp_sent_kib", "KiB", "lower"},
	{"comm.pagerank_sent_kib", "KiB", "lower"},
	{"comm.wcc_sent_kib", "KiB", "lower"},
	{"comm.bfs_1d_max_rank_kib", "KiB", "lower"},
	{"comm.bfs_2d_max_rank_kib", "KiB", "lower"},
	{"comm.inproc_alltoallv_4KiB_us", "us", "lower"},
	{"comm.inproc_alltoallv_1MiB_us", "us", "lower"},
	{"comm.inproc_allreduce_us", "us", "lower"},
	{"comm.inproc_allgatherv_64KiB_us", "us", "lower"},
	{"comm.tcp_alltoallv_4KiB_us", "us", "lower"},
	{"comm.tcp_alltoallv_1MiB_us", "us", "lower"},
	{"comm.tcp_allreduce_us", "us", "lower"},
	{"comm.tcp_allgatherv_64KiB_us", "us", "lower"},

	{"core.build_read_s", "s", "lower"},
	{"core.build_exchange_s", "s", "lower"},
	{"core.build_convert_s", "s", "lower"},
	{"core.shard_encode_mib_s", "MiB/s", "higher"},
	{"core.shard_load_mib_s", "MiB/s", "higher"},

	{"partition.make_edgeblock_ms", "ms", "lower"},
	{"partition.edge_cut_ratio", "ratio", "lower"},
	{"partition.vertex_imbalance", "ratio", "lower"},
	{"partition.edge_imbalance", "ratio", "lower"},

	{"gio.write_mib_s", "MiB/s", "higher"},
	{"gio.read_mib_s", "MiB/s", "higher"},
	{"gen.rmat_medges_s", "Medges/s", "higher"},

	{"store.snapshot_mib", "MiB", "lower"},
	{"store.boot_load_s", "s", "lower"},

	{"obs.trace_overhead_pct", "%", "lower"},
	{"obs.spans_recorded", "count", "higher"},
	{"obs.spans_dropped", "count", "lower"},
}

// baseline reads the scheduler counters just before the timed section of a
// traced run, so the rows below are deltas over that section alone.
func (r *run) baseline(svc *service) error {
	if r.tr == nil {
		return nil
	}
	st, err := svc.stats()
	r.statsBefore = st
	return err
}

// workloadRows computes the rows that come from the traced pass of the
// workload: span medians and self times, scheduler counter deltas, and the
// runtime's allocation counters over the timed section.
func (r *run) workloadRows(svc *service) error {
	tr := r.tr
	ops := float64(len(r.records))
	r.layer["bench.traced_ops_per_s"] = r.opsPerSecond()
	r.layer["bench.peak_rss_mib"] = r.peakRSSMiB
	r.layer["serve.http_self_ms"] = median(tr.selfMS("http.roundtrip", true))
	r.layer["serve.handler_p50_ms"] = median(tr.durationsMS("serve.handler", true))
	r.layer["serve.waited_p50_ms"] = median(r.waitedMS)
	r.layer["serve.mutate_p50_ms"] = median(tr.durationsMS("op.mutate", true))
	r.layer["cold.build_s"] = median(tr.durationsMS("op.build", true)) / 1e3
	r.layer["cold.snapshot_s"] = median(tr.durationsMS("op.snapshot", true)) / 1e3
	r.layer["cold.restore_s"] = median(tr.durationsMS("cold.boot", true)) / 1e3
	r.layer["cold.facade_load_s"] = median(tr.durationsMS("op.facade.load", true)) / 1e3
	r.layer["cold.analytics_s"] = median(tr.durationsMS("cold.analytics_pass", true)) / 1e3

	r.layer["serve.mallocs_per_op"] = float64(r.memEnd.Mallocs-r.memBefore.Mallocs) / ops
	r.layer["serve.alloc_kib_per_op"] = float64(r.memEnd.TotalAlloc-r.memBefore.TotalAlloc) / 1024 / ops
	r.layer["serve.gc_pause_ms"] = float64(r.memEnd.PauseTotalNs-r.memBefore.PauseTotalNs) / 1e6

	if svc == nil {
		return nil
	}
	after, err := svc.stats()
	if err != nil {
		return fmt.Errorf("reading /v1/stats: %w", err)
	}
	a, b := after.Scheduler, r.statsBefore.Scheduler
	if lookups := (a.CacheHits - b.CacheHits) + (a.CacheMisses - b.CacheMisses); lookups > 0 {
		r.layer["serve.cache_hit_ratio"] = float64(a.CacheHits-b.CacheHits) / float64(lookups)
	}
	if jobs := after.JobsRun - r.statsBefore.JobsRun; jobs > 0 {
		r.layer["serve.queries_per_job"] = float64(a.Done-b.Done) / float64(jobs)
	}
	r.layer["serve.max_batch"] = float64(a.MaxBatch)
	r.layer["serve.dedupe_hits"] = float64(a.DedupeHits - b.DedupeHits)
	r.layer["serve.rejected_429"] = float64(a.Rejected429 - b.Rejected429)
	return nil
}
