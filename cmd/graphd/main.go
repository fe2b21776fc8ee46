// Command graphd is the resident graph-query daemon: it loads and
// partitions the graph once across an in-process rank group, then serves
// analytic queries against the resident distributed CSR over HTTP.
//
// Usage (synthetic graph, 4 ranks):
//
//	graphd -addr 127.0.0.1:8080 -ranks 4 -rmat 65536,2359296,7
//
// Query it:
//
//	curl -s localhost:8080/v1/query -d '{"analytic":"bfs","source":0,"wait":true}'
//	curl -s localhost:8080/v1/query -d '{"analytic":"pagerank","wait":true}'
//	curl -s localhost:8080/v1/stats
//
// Mutate it (streaming edge ingest; op 1 = insert, 2 = delete), then
// compact the accumulated overlay into a new packed CSR epoch:
//
//	curl -s localhost:8080/v1/mutate -d '{"mutations":[{"op":1,"src":3,"dst":9}],"wait":true}'
//	curl -s -X POST localhost:8080/v1/admin/compact
//
// Requests are admitted through a bounded queue (429 when full), run one
// SPMD job at a time, coalesce pending same-analytic single-source queries
// into one multi-source run, and answer repeats from a SIEVE result cache.
// Mutation batches flow through the same serialized job stream, so reads
// and writes are totally ordered; every acknowledged batch advances the
// graph epoch, which keys the result cache. With -auto-compact n > 0 the
// daemon compacts on its own every n batches; otherwise compaction is
// admin-triggered.
//
// With -replicas k > 1 every shard is held by k hosts; if a host dies the
// cluster re-forms over the survivors and replays in-flight queries
// (POST /v1/admin/kill drills this live). Backup replicas apply every
// mutation batch too, so a promoted shard is already current.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
		ranks    = flag.Int("ranks", 4, "resident in-process rank count")
		threads  = flag.Int("threads", 0, "worker threads per rank (0 = NumCPU)")
		file     = flag.String("file", "", "binary edge file to load")
		rmat     = flag.String("rmat", "", "synthetic input: n,m,seed (R-MAT)")
		seed     = flag.Uint64("seed", 0xFACE, "partitioner seed")
		replicas = flag.Int("replicas", 1, "hosts holding each shard (k>1 survives rank loss via failover)")
		autoComp = flag.Int("auto-compact", 0, "compact the mutation overlay every n acknowledged batches (0 = admin-triggered only)")

		storeDir  = flag.String("store", "", "persistent shard-store directory; boots from its manifest when one exists, skipping ingestion")
		autoSnap  = flag.Bool("auto-snapshot", false, "persist a store snapshot after every full compaction (and once after the initial build)")
		auditIntv = flag.Duration("audit-interval", 0, "background store audit pace: verify one replica file per interval (0 = no audit)")

		queueCap = flag.Int("queue-cap", 64, "admission queue bound (beyond it requests get 429)")
		batchMax = flag.Int("batch-max", 8, "max single-source queries coalesced into one multi-source run (1 = no batching)")
		cacheCap = flag.Int("cache-cap", 256, "result cache entries (0 = no caching)")
		timeout  = flag.Duration("default-timeout", 30*time.Second, "per-request deadline when the client sends no timeout_ms")

		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060)")
	)
	// The shared ParseKind-driven partitioning spec (same spellings and
	// fail-fast error as repro/tcprank).
	partFlag := &partition.Flag{Kind: partition.Random}
	flag.Var(partFlag, "partition", partition.KindUsage)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments: %s", strings.Join(flag.Args(), " ")))
	}

	kind := partFlag.Kind
	// The query layer routes point lookups by vertex owner and serves SSSP
	// and PageRank, all of which assume a 1d layout; the checkerboard is an
	// analytics-side layout, not a serving one.
	if kind == partition.Grid2D {
		fatal(fmt.Errorf("graphd does not serve the 2d checkerboard layout; pick a 1d partitioning (np, mp, rand, or pulp)"))
	}

	// A store directory with a valid manifest makes the daemon self-
	// describing: the manifest fixes the shard/replica shape and the edge
	// source becomes optional. Flags left at their defaults defer to it;
	// explicitly set -ranks/-replicas are still passed through so a genuine
	// mismatch fails loudly instead of silently reshaping the cluster.
	bootFromStore := false
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			fatal(err)
		}
		switch _, err := st.ReadManifest(); {
		case err == nil:
			bootFromStore = true
		case !errors.Is(err, store.ErrNoManifest):
			fatal(err)
		}
	}
	if bootFromStore {
		explicit := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		if !explicit["ranks"] {
			*ranks = 0
		}
		if !explicit["replicas"] {
			*replicas = 0
		}
	}

	// The store manifest supplies the graph when no edge source is named.
	src, closeSrc, err := core.OpenSource(*file, *rmat)
	if err != nil {
		fatal(err)
	}
	defer closeSrc()
	if src == nil && !bootFromStore {
		fatal(fmt.Errorf("one of -file, -rmat, or a populated -store is required"))
	}

	if *pprofAddr != "" {
		pa, stop, err := obs.StartPprof(*pprofAddr)
		if err != nil {
			fatal(err)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "graphd: pprof on http://%s/debug/pprof/\n", pa)
	}

	if bootFromStore {
		fmt.Fprintf(os.Stderr, "graphd: booting resident graph from store %s...\n", *storeDir)
	} else {
		fmt.Fprintf(os.Stderr, "graphd: building resident graph on %d ranks...\n", *ranks)
	}
	cl, err := serve.NewCluster(serve.ClusterConfig{
		Ranks:         *ranks,
		Threads:       *threads,
		Source:        src,
		Partition:     kind,
		Seed:          *seed,
		Epoch:         1,
		Replicas:      *replicas,
		AutoCompact:   *autoComp,
		StoreDir:      *storeDir,
		AutoSnapshot:  *autoSnap,
		AuditInterval: *auditIntv,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "graphd: resident graph ready: n=%d m=%d ranks=%d replicas=%d (%s in %.3fs)\n",
		cl.NumVertices(), cl.NumEdges(), cl.Size(), cl.Replicas(),
		map[bool]string{true: "loaded from store", false: "built"}[cl.BootedFromStore()],
		cl.BuildTime().Seconds())
	if *storeDir != "" && *autoSnap && !cl.BootedFromStore() {
		// First boot of an auto-snapshotting daemon: persist the freshly
		// built graph now so the next start can skip ingestion.
		if res, err := cl.Snapshot(); err != nil {
			fmt.Fprintf(os.Stderr, "graphd: initial snapshot: %v\n", err)
		} else if !res.Persisted {
			fmt.Fprintf(os.Stderr, "graphd: initial snapshot: %s\n", res.Detail)
		} else {
			fmt.Fprintf(os.Stderr, "graphd: initial snapshot committed (epoch %d, %d files)\n", res.Epoch, res.Applied)
		}
	}

	sched := serve.NewScheduler(cl, serve.SchedConfig{
		QueueCap: *queueCap,
		BatchMax: *batchMax,
		CacheCap: *cacheCap,
	})
	sched.Start()
	api := serve.NewServer(sched, serve.ServerConfig{DefaultTimeout: *timeout})

	httpSrv := &http.Server{Addr: *addr, Handler: api}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "graphd: serving on http://%s (POST /v1/query, /v1/mutate, GET /v1/jobs/{id}, /v1/stats, /healthz)\n", *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "graphd: %v, draining...\n", s)
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "graphd: http server: %v\n", err)
	}

	httpSrv.Close()
	sched.Close()
	if err := cl.Close(); err != nil {
		fatal(fmt.Errorf("cluster shutdown: %w", err))
	}
	fmt.Fprintln(os.Stderr, "graphd: bye")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "graphd: %v\n", err)
	os.Exit(1)
}
