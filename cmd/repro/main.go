// Command repro regenerates the paper's evaluation: every table and figure
// of Slota, Rajamanickam, Madduri (IPDPS 2016) at configurable scale.
//
// Usage:
//
//	repro all                    # every experiment at default scale
//	repro table4 fig3            # specific experiments
//	repro -scale 4 -ranks 1,2,4,8,16 fig2
//
// Output is a text rendering of each table/figure; notes under each table
// state the paper-reported values or shapes the measurement should be
// compared against (see EXPERIMENTS.md for a recorded comparison).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/partition"
)

func main() {
	var (
		scale     = flag.Float64("scale", 1.0, "workload scale multiplier (1.0 = laptop defaults)")
		ranks     = flag.String("ranks", "1,2,4,8", "comma-separated rank counts for scaling experiments")
		threads   = flag.Int("threads", 1, "worker threads per rank")
		seed      = flag.Uint64("seed", 0xC0FFEE, "workload seed")
		tmp       = flag.String("tmpdir", "", "directory for temporary edge files")
		trace     = flag.String("trace", "", "write a Chrome trace_event JSON of the run to this file (also prints a per-phase table)")
		traceCap  = flag.Int("trace-cap", 0, "per-rank trace ring capacity in events (0 = default 64Ki)")
		pprof     = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060) for the run's duration")
		rtm       = flag.Bool("runtime-metrics", false, "dump a runtime/metrics snapshot to stderr after the run")
		retries   = flag.Int("retries", 1, "max attempts per exchange on transient comm faults (1 = no retry)")
		retryBase = flag.Duration("retry-base", time.Millisecond, "base backoff delay between retry attempts (with -retries > 1)")
		hybrid    = flag.String("hybrid", "adaptive", "traversal policy for BFS-like analytics: adaptive, push (always-sparse baseline), dense")
		delta     = flag.Uint64("delta", 0, "extra fixed Δ-stepping bucket width for the delta experiment's sweep (0 = sweep only one fat bucket, 1, auto, mean weight)")
		part      = flag.String("partition", "", "override the single-graph experiments' partitioning ("+partition.KindUsage+"; empty = per-experiment default; partition-sweep experiments ignore it)")
	)
	flag.Parse()
	if *retries < 1 {
		fmt.Fprintln(os.Stderr, "repro: -retries must be >= 1 (1 = no retry)")
		os.Exit(2)
	}
	// Fail fast on a bad traversal policy before any experiment spends time
	// building graphs.
	mode, err := core.ParseTraversalMode(*hybrid)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(2)
	}
	// Same ParseKind spec as tcprank/graphd/graphan: bad spellings fail
	// fast with the full list of valid kinds before any graph is built.
	var partOverride *partition.Kind
	if *part != "" {
		k, err := partition.ParseKind(*part)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			os.Exit(2)
		}
		partOverride = &k
	}

	if *pprof != "" {
		addr, stop, err := obs.StartPprof(*pprof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			os.Exit(1)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "repro: pprof on http://%s/debug/pprof/\n", addr)
	}

	cfg := harness.Default()
	cfg.Scale = *scale
	cfg.Threads = *threads
	cfg.Seed = *seed
	cfg.TmpDir = *tmp
	cfg.Traverse = core.Traversal{Mode: mode}
	cfg.Delta = *delta
	cfg.Partition = partOverride
	if *retries > 1 {
		cfg.Retry = comm.DefaultRetryPolicy()
		cfg.Retry.MaxAttempts = *retries
		cfg.Retry.BaseDelay = *retryBase
	}
	if *trace != "" {
		cfg.Trace = obs.NewTraceSet(*traceCap)
	}
	defer func() {
		if cfg.Trace == nil {
			return
		}
		if err := writeTrace(*trace, cfg.Trace); err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			os.Exit(1)
		}
	}()
	defer func() {
		if *rtm {
			if err := obs.WriteRuntimeMetrics(os.Stderr); err != nil {
				fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			}
		}
	}()
	cfg.Ranks = nil
	for _, part := range strings.Split(*ranks, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			fmt.Fprintf(os.Stderr, "repro: bad rank count %q\n", part)
			os.Exit(2)
		}
		cfg.Ranks = append(cfg.Ranks, v)
	}

	keys := flag.Args()
	if len(keys) == 0 {
		fmt.Fprintln(os.Stderr, "repro: name experiments to run, or 'all'")
		fmt.Fprintln(os.Stderr, "available:")
		for _, e := range harness.Experiments() {
			fmt.Fprintf(os.Stderr, "  %s\n", e.Key)
		}
		os.Exit(2)
	}
	if len(keys) == 1 && keys[0] == "all" {
		if err := harness.RunAll(cfg, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			os.Exit(1)
		}
		return
	}
	for _, key := range keys {
		exp, err := harness.Lookup(key)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			os.Exit(2)
		}
		rep, err := exp.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: %s: %v\n", key, err)
			os.Exit(1)
		}
		if err := rep.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeTrace exports the collected timeline: Chrome trace_event JSON to
// path, and the per-phase aggregation as a table on stdout.
func writeTrace(path string, ts *obs.TraceSet) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChrome(f, ts.Tracers()); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("== Trace: %s (load in chrome://tracing or ui.perfetto.dev) ==\n", path)
	return obs.WritePhaseTable(os.Stdout, ts.Tracers())
}
