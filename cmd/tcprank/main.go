// Command tcprank runs one rank of a genuinely distributed PageRank/WCC
// job over the TCP transport. Start one process per rank with the same
// address list; the processes form a full mesh, build the distributed
// graph, and run the analytics exactly as the in-process cluster does —
// same code, different transport.
//
// Usage (two ranks on one machine):
//
//	tcprank -rank 0 -addrs 127.0.0.1:7070,127.0.0.1:7071 -file crawl.bin &
//	tcprank -rank 1 -addrs 127.0.0.1:7070,127.0.0.1:7071 -file crawl.bin
//
// Either -file (shared filesystem) or -rmat n,m,seed (each rank generates
// its chunk) selects the input; naming both is an error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/analytics"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/partition"
)

func main() {
	var (
		rank     = flag.Int("rank", -1, "this process's rank (required)")
		addrs    = flag.String("addrs", "", "comma-separated host:port per rank (required)")
		file     = flag.String("file", "", "binary edge file on a shared filesystem")
		rmat     = flag.String("rmat", "", "synthetic input: n,m,seed")
		threads  = flag.Int("threads", 0, "worker threads (0 = NumCPU)")
		prIters  = flag.Int("pr-iters", 10, "PageRank iterations")
		timeout  = flag.Duration("timeout", 30*time.Second, "mesh dial timeout")
		trace    = flag.String("trace", "", "write this rank's Chrome trace_event JSON to this file (rank id is appended before the extension)")
		traceCap = flag.Int("trace-cap", 0, "trace ring capacity in events (0 = default 64Ki)")
		pprof    = flag.String("pprof", "", "serve net/http/pprof on this address for the run's duration")
		stats    = flag.Bool("stats", false, "print this rank's per-collective counters after the run")

		deadline  = flag.Duration("exchange-deadline", 0, "per-frame read/write deadline on peer connections (0 = none)")
		ckptEvery = flag.Int("ckpt-every", 0, "checkpoint PageRank state every K iterations (0 = off)")
		ckptDir   = flag.String("ckpt-dir", "", "directory for per-rank checkpoint files (with -ckpt-every or -resume)")
		resume    = flag.Bool("resume", false, "resume PageRank from this rank's checkpoint in -ckpt-dir")
		kcore     = flag.Bool("kcore", false, "also run exact k-core peeling and report the degeneracy")
		hybrid    = flag.String("hybrid", "adaptive", "traversal policy for BFS-like analytics: adaptive, push (always-sparse baseline), dense; must agree across ranks")
	)
	// The partitioning flag is the shared ParseKind-driven spec: every
	// binary accepts the same spellings and fails fast with the same list
	// of valid kinds.
	partFlag := &partition.Flag{Kind: partition.Random}
	flag.Var(partFlag, "partition", partition.KindUsage)
	flag.Parse()
	addrList := strings.Split(*addrs, ",")
	if *rank < 0 || *rank >= len(addrList) || *addrs == "" {
		fmt.Fprintln(os.Stderr, "tcprank: -rank and -addrs are required and must agree")
		os.Exit(2)
	}
	// Fail fast on bad checkpoint combinations before dialing the mesh: a
	// misconfigured run must not cost a connect plus a graph build before
	// erroring.
	if *ckptEvery < 0 {
		fmt.Fprintln(os.Stderr, "tcprank: -ckpt-every must be >= 0 (0 = off)")
		os.Exit(2)
	}
	if (*ckptEvery > 0 || *resume) && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "tcprank: -ckpt-every and -resume require -ckpt-dir")
		os.Exit(2)
	}
	mode, err := core.ParseTraversalMode(*hybrid)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcprank: %v\n", err)
		os.Exit(2)
	}
	kind := partFlag.Kind
	// PageRank and exact k-core are 1d-only (the analytics layer gates
	// them); under the 2d checkerboard this binary runs BFS+WCC instead,
	// so the PageRank-shaped flags must be rejected up front.
	if kind == partition.Grid2D && (*ckptEvery > 0 || *resume || *kcore) {
		fmt.Fprintln(os.Stderr, "tcprank: -ckpt-every, -resume, and -kcore require a 1d partitioning (PageRank and exact k-core do not support the 2d checkerboard layout)")
		os.Exit(2)
	}

	src, closeSrc, err := core.OpenSource(*file, *rmat)
	if err != nil {
		fatal(err)
	}
	defer closeSrc()
	if src == nil {
		fatal(fmt.Errorf("one of -file or -rmat is required"))
	}

	if *pprof != "" {
		addr, stop, err := obs.StartPprof(*pprof)
		if err != nil {
			fatal(err)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "rank %d: pprof on http://%s/debug/pprof/\n", *rank, addr)
	}

	fmt.Printf("rank %d: dialing mesh of %d...\n", *rank, len(addrList))
	tr, err := comm.DialMesh(*rank, addrList, *timeout)
	if err != nil {
		fatal(err)
	}
	if *deadline > 0 {
		tr.SetExchangeDeadline(*deadline)
	}
	c := comm.New(tr)
	defer c.Close()
	var tracer *obs.Tracer
	if *trace != "" {
		tracer = obs.NewTracer(*rank, *traceCap, time.Now())
		c.SetTracer(tracer)
	}
	var met *obs.Metrics
	if *stats {
		met = obs.NewMetrics()
		c.SetMetrics(met)
	}
	ctx := core.NewCtx(c, *threads)
	ctx.Traverse = mode

	n, err := core.ScanNumVertices(ctx, src)
	if err != nil {
		fatal(err)
	}
	pt, err := core.MakePartitioner(ctx, src, kind, n, 0xFACE)
	if err != nil {
		fatal(err)
	}
	g, tm, err := core.Build(ctx, src, pt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("rank %d: built shard nloc=%d ngst=%d (construction %.3fs)\n",
		*rank, g.NLoc, g.NGst, tm.Total().Seconds())

	if kind == partition.Grid2D {
		run2D(ctx, g, c, *rank)
		finish(c, tracer, met, *trace, *rank)
		return
	}

	prOpts := analytics.PageRankOptions{Iterations: *prIters, Damping: 0.85}
	var ckptPath string
	if *ckptEvery > 0 || *resume {
		// Combination already validated right after flag parsing.
		ckptPath = filepath.Join(*ckptDir, fmt.Sprintf("pagerank.rank%04d.ckpt", *rank))
	}
	if *ckptEvery > 0 {
		prOpts.Checkpoint.Every = *ckptEvery
		prOpts.Checkpoint.Sink = func(cp *analytics.Checkpoint) error {
			return analytics.WriteCheckpointFile(ckptPath, cp)
		}
	}
	if *resume {
		cp, err := analytics.ReadCheckpointFile(ckptPath)
		if err != nil {
			fatal(fmt.Errorf("resume: %w", err))
		}
		prOpts.Checkpoint.Resume = cp
		fmt.Printf("rank %d: resuming PageRank from iteration %d (%s)\n", *rank, cp.Iter, ckptPath)
	}

	start := time.Now()
	pr, err := analytics.PageRank(ctx, g, prOpts)
	if err != nil {
		fatal(err)
	}
	prTime := time.Since(start)
	start = time.Now()
	wcc, err := analytics.WCC(ctx, g)
	if err != nil {
		fatal(err)
	}
	wccTime := time.Since(start)

	// Report a global summary from rank 0.
	var localMax float64
	for _, s := range pr.Scores {
		if s > localMax {
			localMax = s
		}
	}
	maxPR, err := comm.Allreduce(c, localMax, comm.OpMax)
	if err != nil {
		fatal(err)
	}
	if *rank == 0 {
		fmt.Printf("rank 0: PageRank %d iters in %.3fs (max score %s); WCC in %.3fs: %d components, largest %d\n",
			pr.Iterations, prTime.Seconds(), strconv.FormatFloat(maxPR, 'g', -1, 64), wccTime.Seconds(), wcc.NumComponents, wcc.LargestSize)
	}
	if *kcore {
		// -kcore must agree across ranks (KCoreExact is collective), like
		// every other workload-shaping flag here.
		start = time.Now()
		kc, err := analytics.KCoreExact(ctx, g)
		if err != nil {
			fatal(err)
		}
		if *rank == 0 {
			fmt.Printf("rank 0: exact k-core in %.3fs: degeneracy %d (%d levels, %d sub-rounds, %d peels here)\n",
				time.Since(start).Seconds(), kc.MaxCore, kc.Levels, kc.Rounds, kc.Peeled)
		}
	}
	finish(c, tracer, met, *trace, *rank)
}

// run2D is the analytics path for the 2d checkerboard layout: PageRank and
// exact k-core are gated to 1d, so the traversal analytics run instead.
func run2D(ctx *core.Ctx, g *core.Graph, c *comm.Comm, rank int) {
	start := time.Now()
	bfs, err := analytics.BFS(ctx, g, 0, analytics.Und)
	if err != nil {
		fatal(err)
	}
	bfsTime := time.Since(start)
	start = time.Now()
	wcc, err := analytics.WCC(ctx, g)
	if err != nil {
		fatal(err)
	}
	wccTime := time.Since(start)
	if rank == 0 {
		r, cols := partition.GridDims(c.Size())
		fmt.Printf("rank 0: 2d checkerboard (%dx%d grid): BFS(0) in %.3fs: reached %d, depth %d; WCC in %.3fs: %d components, largest %d\n",
			r, cols, bfsTime.Seconds(), bfs.Reached, bfs.Depth, wccTime.Seconds(), wcc.NumComponents, wcc.LargestSize)
		fmt.Println("rank 0: PageRank and exact k-core are 1d-only; skipped under -partition 2d")
	}
}

// finish is the shared epilogue: the closing barrier, then this rank's
// trace and metrics dumps.
func finish(c *comm.Comm, tracer *obs.Tracer, met *obs.Metrics, trace string, rank int) {
	if err := c.Barrier(); err != nil {
		fatal(err)
	}
	if tracer != nil {
		path := rankTracePath(trace, rank)
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := obs.WriteChrome(f, []*obs.Tracer{tracer}); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("rank %d: trace written to %s\n", rank, path)
	}
	if met != nil {
		mets := make([]*obs.Metrics, rank+1)
		mets[rank] = met
		if err := obs.WriteMetricsTable(os.Stdout, mets); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("rank %d: done\n", rank)
}

// rankTracePath inserts the rank id before the path's extension:
// trace.json -> trace.0.json, trace -> trace.0.
func rankTracePath(path string, rank int) string {
	if i := strings.LastIndex(path, "."); i > strings.LastIndex(path, "/") {
		return fmt.Sprintf("%s.%d%s", path[:i], rank, path[i:])
	}
	return fmt.Sprintf("%s.%d", path, rank)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "tcprank: %v\n", err)
	os.Exit(1)
}
