// Command graphan runs the paper's end-to-end pipeline on a binary edge
// file: parallel ingestion, distributed graph construction under a chosen
// partitioning, then any subset of the six analytics, printing per-stage
// and per-analytic times.
//
// Usage:
//
//	graphan -file crawl.bin -ranks 8 -threads 2 -partition rand \
//	        -analytics pr,lp,wcc,hc,kcore,scc
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/analytics"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/gio"
	"repro/internal/partition"
)

func main() {
	var (
		file     = flag.String("file", "", "binary edge file (required)")
		ranks    = flag.Int("ranks", 4, "number of ranks")
		threads  = flag.Int("threads", 1, "worker threads per rank")
		list     = flag.String("analytics", "pr,lp,wcc,hc,kcore,scc", "comma-separated analytics")
		prIters  = flag.Int("pr-iters", 10, "PageRank iterations")
		lpIters  = flag.Int("lp-iters", 10, "Label Propagation iterations")
		kcLevels = flag.Int("kcore-levels", 27, "k-core threshold levels")
		topk     = flag.Int("hc-topk", 1, "harmonic centrality: number of top-degree vertices")
	)
	// The shared ParseKind-driven partitioning spec. Under 2d, analytics
	// that are 1d-only (pr, lp, kcore, scc) fail per-analytic with the
	// layout error instead of computing on the wrong decomposition.
	partFlag := &partition.Flag{Kind: partition.VertexBlock}
	flag.Var(partFlag, "partition", partition.KindUsage)
	flag.Parse()
	if *file == "" {
		fmt.Fprintln(os.Stderr, "graphan: -file is required")
		flag.Usage()
		os.Exit(2)
	}
	kind := partFlag.Kind
	reader, err := gio.Open(*file)
	if err != nil {
		fatal(err)
	}
	defer reader.Close()

	selected := strings.Split(*list, ",")
	var mu sync.Mutex
	report := func(format string, args ...any) {
		mu.Lock()
		fmt.Printf(format+"\n", args...)
		mu.Unlock()
	}

	start := time.Now()
	err = comm.RunLocal(*ranks, func(c *comm.Comm) error {
		ctx := core.NewCtx(c, *threads)
		n, err := core.ScanNumVertices(ctx, reader)
		if err != nil {
			return err
		}
		pt, err := core.MakePartitioner(ctx, reader, kind, n, 0xBEEF)
		if err != nil {
			return err
		}
		g, tm, err := core.Build(ctx, reader, pt)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			report("graph: n=%d m=%d ranks=%d threads=%d partition=%v", n, g.MGlobal, *ranks, *threads, kind)
			report("construction: read=%.3fs exchange=%.3fs convert=%.3fs total=%.3fs",
				tm.Read.Seconds(), tm.Exchange.Seconds(), tm.Convert.Seconds(), tm.Total().Seconds())
		}
		for _, a := range selected {
			a = strings.TrimSpace(a)
			if err := c.Barrier(); err != nil {
				return err
			}
			t0 := time.Now()
			var detail string
			switch a {
			case "pr":
				res, err := analytics.PageRank(ctx, g, analytics.PageRankOptions{Iterations: *prIters, Damping: 0.85})
				if err != nil {
					return err
				}
				detail = fmt.Sprintf("%d iterations", res.Iterations)
			case "lp":
				_, err := analytics.LabelProp(ctx, g, analytics.LabelPropOptions{Iterations: *lpIters})
				if err != nil {
					return err
				}
				detail = fmt.Sprintf("%d iterations", *lpIters)
			case "wcc":
				res, err := analytics.WCC(ctx, g)
				if err != nil {
					return err
				}
				detail = fmt.Sprintf("%d components, largest %d", res.NumComponents, res.LargestSize)
			case "hc":
				scores, err := analytics.HarmonicTopK(ctx, g, *topk)
				if err != nil {
					return err
				}
				if len(scores) > 0 {
					detail = fmt.Sprintf("top vertex %d score %.2f", scores[0].Vertex, scores[0].Score)
				}
			case "kcore":
				_, err := analytics.KCoreApprox(ctx, g, *kcLevels)
				if err != nil {
					return err
				}
				detail = fmt.Sprintf("%d levels", *kcLevels)
			case "scc":
				res, err := analytics.LargestSCC(ctx, g)
				if err != nil {
					return err
				}
				detail = fmt.Sprintf("largest SCC %d vertices, %d trimmed", res.Size, res.Trimmed)
			default:
				return fmt.Errorf("unknown analytic %q", a)
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				report("%-6s %8.3fs  %s", a, time.Since(t0).Seconds(), detail)
			}
		}
		return nil
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("end-to-end: %.3fs\n", time.Since(start).Seconds())
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "graphan: %v\n", err)
	os.Exit(1)
}
