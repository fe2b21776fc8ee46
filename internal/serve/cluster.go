// Package serve is the resident graph-query service: the comm ranks and
// the ghost-relabelled distributed CSR are built once and stay resident,
// and analytic queries (BFS/SSSP from a source, PageRank — plain or
// weighted — Harmonic/LabelProp/WCC/exact k-core over the whole graph) run
// against them as SPMD jobs —
// load and partition once, answer many queries, the serving posture the
// distributed-graph-systems surveys show one-shot jobs cannot reach.
//
// The package layers three pieces over the resident cluster:
//
//   - Cluster: the rank goroutines and their rank-side dispatch loop. The
//     scheduler hands a job to rank 0; every rank receives it through a
//     command broadcast built on the existing Bcast collective (no new
//     transport) and dispatches it through analytics.Run, so a job runs
//     exactly as a one-shot SPMD program would. With Replicas > 1 every
//     shard lives on k hosts and a supervisor re-forms the compute group
//     over surviving replicas when a host dies (see failover.go).
//   - Scheduler: admission control (bounded queue, per-request deadlines,
//     typed 429/503 rejections), request batching (pending same-analytic
//     single-source queries coalesce into one multi-source run), a SIEVE
//     result cache keyed by (graph epoch, analytic, params), and requeue
//     of jobs whose SPMD run died with a failed compute group.
//   - Server: the HTTP/JSON front end (POST /v1/query, GET /v1/jobs/{id},
//     GET /v1/stats, GET /healthz, POST /v1/admin/kill).
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analytics"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/store"
)

// TransportFactory builds the slot transports for one compute-group
// generation. It is called once per generation with the (fixed) slot count
// and must return one connected transport per slot. The cluster owns the
// returned transports and closes them when the generation ends.
type TransportFactory func(gen uint64, slots int) ([]comm.Transport, error)

// ClusterConfig shapes the resident rank group and its graph.
type ClusterConfig struct {
	// Ranks is the compute-slot count — one shard per slot (must be
	// positive). It is also the initial host count; hosts can die, the
	// slot count never changes.
	Ranks int
	// Threads is the per-rank worker count (<= 0 selects NumCPU). A host
	// serving several slots after a failover splits this between them.
	Threads int
	// Source feeds the one-time graph build; it must be safe for
	// concurrent ReadChunk calls (both SpecSource and gio readers are).
	Source core.EdgeSource
	// Partition selects the partitioning (default Random).
	Partition partition.Kind
	// Seed seeds the partitioner.
	Seed uint64
	// Trace, when non-nil, collects per-rank spans from the resident
	// ranks across all jobs.
	Trace *obs.TraceSet
	// Epoch is the initial graph epoch in result-cache keys; bump it when
	// the same daemon reloads a new graph. Every acknowledged mutation
	// batch and every full compaction advances the live epoch from here.
	Epoch uint64
	// NumVertices, when positive, widens the vertex space beyond what the
	// source's edges span (isolated trailing vertices). The differential
	// rebuild battery needs it: a rebuild from a mutated edge list must
	// keep the original cluster's vertex count even when mutations deleted
	// every edge touching the max vertex id.
	NumVertices uint32
	// AutoCompact, when positive, triggers a background compaction after
	// every AutoCompact acknowledged mutation batches. 0 disables
	// auto-compaction (compaction still available through Compact).
	AutoCompact int
	// Replicas is how many hosts hold each shard (0 or 1 = no
	// replication). With k replicas the cluster survives any host losses
	// that leave every shard at least one live replica.
	Replicas int
	// StoreDir, when non-empty, attaches a persistent shard store
	// (internal/store) to the cluster. If the directory holds a valid
	// manifest the cluster boots from it — every host loads its shard
	// replicas from local files, skipping ingestion, partitioning, and the
	// replication Alltoallv entirely — and the manifest's shard/replica
	// shape is authoritative (Ranks and Replicas must be zero or match;
	// Source may be nil and is ignored). Snapshot persists on demand.
	StoreDir string
	// AutoSnapshot, when set (and StoreDir is), persists a snapshot after
	// every full compaction swap, so a restart replays at most the batches
	// since the last compaction.
	AutoSnapshot bool
	// AuditInterval, when positive (and StoreDir is set), starts a
	// background auditor that re-reads one stored replica file per interval,
	// verifies its checksums, quarantines corrupt files, and re-replicates
	// them from healthy sibling replicas.
	AuditInterval time.Duration
	// Transports, when non-nil, builds each generation's slot transports
	// (e.g. a TCP mesh); nil selects the in-process group.
	Transports TransportFactory
	// WrapTransport, when non-nil, wraps every slot transport of every
	// generation before use — the fault-injection seam the chaos battery
	// drives with comm.ScheduledTransport.
	WrapTransport func(gen uint64, slot int, tr comm.Transport) comm.Transport
}

// jobShutdown is the reserved analytic name the dispatch loop uses to wind
// the rank group down; it never reaches analytics.Run.
const jobShutdown = "_shutdown"

// jobNudge is the reserved no-op analytic Kill submits so an idle rank 0
// (parked on the submit channel, not in a collective) enters a broadcast
// round and observes the aborted group promptly. On a healthy group it is
// one empty round.
const jobNudge = "_nudge"

// JobStats is the per-job communication summary a finished job carries
// back: rank 0's Stats breakdown plus the group-wide wire volume.
type JobStats struct {
	// Rank0 is rank 0's own comp/comm/idle and byte breakdown for the job.
	Rank0 comm.Stats
	// SentBytes is the job's off-rank payload volume summed over every
	// rank (the group-wide Sent-MiB a resident service meters per query).
	SentBytes uint64
	// Collectives is rank 0's per-collective counter snapshot for the job.
	Collectives [obs.NumCollectives]obs.CollectiveStats
}

// outcome is what the dispatch loop reports back for one submitted job.
type outcome struct {
	res   *analytics.JobResult
	stats JobStats
	err   error
}

// pending is one job in flight between the scheduler and rank 0.
type pending struct {
	job  *analytics.Job
	resp chan outcome // buffered; exactly one send per accepted pending
}

// hostState is one replica-holding host: whether it is still in the group
// and which shard replicas it holds (its own plus the backups replicated
// to it), each wrapped in a mutable shardState (base CSR + overlay).
type hostState struct {
	alive  bool
	shards map[int]*shardState
}

// Cluster is a resident rank group: compute slots (one per shard) served
// by replica-holding hosts. Jobs are submitted through Run (one at a time
// — the scheduler enforces serialization; the cluster additionally meters
// overlap so tests can prove it) and execute SPMD-style on the resident
// slots. When a host dies the supervisor re-forms the group over the
// surviving replicas (failover.go); the slot count — and therefore the
// SPMD group size every kernel sees — never changes.
type Cluster struct {
	size     int // compute slots == shards
	replicas int
	n        uint32
	builtIn  time.Duration
	start    time.Time

	// epoch identifies the logical graph snapshot result-cache keys and
	// /v1/stats report; every acknowledged mutate batch and every full
	// compaction swap advances it. m tracks the live global edge count.
	// Both are written inside mutate/compact jobs while stats handlers
	// read them, hence atomics.
	epoch atomic.Uint64
	m     atomic.Uint64

	// Streaming-ingest counters and auto-compaction plumbing (mutate.go).
	nextMutID     atomic.Uint64
	ingestBatches atomic.Uint64
	ingestRecords atomic.Uint64
	compactions   atomic.Uint64
	merge         mergeMeter
	sinceCompact  atomic.Uint64
	autoCompact   int
	compactReq    chan struct{}

	placement *partition.Placement
	failover  *obs.FailoverCounters
	// planStats[s] meters slot s's kernel-plan cache. The cache is rebuilt
	// with every generation's Ctx; the counters are cumulative.
	planStats []obs.PlanCounters

	// Persistent shard store plumbing (snapshot.go). store and bootMan are
	// fixed at construction; the snap* accumulator collects per-slot file
	// digests during one snapshot job (reset by Snapshot before submission —
	// the job stream is serialized, so at most one snapshot accumulates at a
	// time).
	store        *store.Store
	bootMan      *store.Manifest
	auditor      *store.Auditor
	autoSnapshot bool
	snapReq      chan struct{}
	snapshots    atomic.Uint64
	bootRepairs  atomic.Uint64
	lastSnapEp   atomic.Uint64
	lastSnapN    atomic.Uint64
	lastSnapB    atomic.Uint64
	snapMu       sync.Mutex
	snapDigests  map[int]store.Digest
	snapHosts    map[int][]int32
	snapErrs     []string

	submit chan *pending
	quit   chan struct{}
	dead   chan struct{}

	closeOnce sync.Once
	errMu     sync.Mutex
	err       error

	// hostMu guards hosts, condemned, and the current generation's
	// transports/view (the Kill path pokes a live generation through
	// them).
	hostMu        sync.Mutex
	hosts         []*hostState
	condemned     []int
	curTransports []comm.Transport
	curView       *comm.Membership

	generation atomic.Uint64
	buildOK    atomic.Int64

	jobsRun atomic.Uint64
}

// NewCluster builds the distributed graph once, SPMD-style, replicates
// each shard onto its backup hosts, and leaves the group resident with
// every slot parked in its dispatch loop. The returned cluster is ready
// for Run.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	var st *store.Store
	var man *store.Manifest
	if cfg.StoreDir != "" {
		var err error
		st, err = store.Open(cfg.StoreDir)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		man, err = st.ReadManifest()
		if err != nil && !errors.Is(err, store.ErrNoManifest) {
			return nil, fmt.Errorf("serve: store manifest: %w", err)
		}
	}
	if man != nil {
		// A valid manifest is authoritative for the cluster shape: explicit
		// Ranks/Replicas must agree with it (zero means adopt).
		if cfg.Ranks != 0 && cfg.Ranks != man.Placement.Shards() {
			return nil, fmt.Errorf("serve: configured %d ranks but the store manifest has %d shards",
				cfg.Ranks, man.Placement.Shards())
		}
		cfg.Ranks = man.Placement.Shards()
		if cfg.Replicas != 0 && cfg.Replicas != man.Placement.Replicas() {
			return nil, fmt.Errorf("serve: configured %d replicas but the store manifest has %d",
				cfg.Replicas, man.Placement.Replicas())
		}
		cfg.Replicas = man.Placement.Replicas()
	}
	if cfg.Ranks <= 0 {
		return nil, fmt.Errorf("serve: cluster needs a positive rank count, got %d", cfg.Ranks)
	}
	if cfg.Source == nil && man == nil {
		return nil, fmt.Errorf("serve: cluster needs an edge source or a populated store")
	}
	k := cfg.Replicas
	if k <= 0 {
		k = 1
	}
	pl, err := partition.NewPlacement(cfg.Ranks, cfg.Ranks, k)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	cl := &Cluster{
		size:        cfg.Ranks,
		replicas:    k,
		start:       time.Now(),
		placement:   pl,
		failover:    &obs.FailoverCounters{},
		planStats:   make([]obs.PlanCounters, cfg.Ranks),
		submit:      make(chan *pending),
		quit:        make(chan struct{}),
		dead:        make(chan struct{}),
		hosts:       make([]*hostState, cfg.Ranks),
		autoCompact: cfg.AutoCompact,
		compactReq:  make(chan struct{}, 1),

		store:        st,
		bootMan:      man,
		autoSnapshot: cfg.AutoSnapshot && st != nil,
		snapReq:      make(chan struct{}, 1),
	}
	cl.epoch.Store(cfg.Epoch)
	if man != nil {
		// Resume the persisted graph identity: logical epoch for cache keys,
		// the ingest watermark so new batch ids keep ascending past every
		// persisted batch.
		cl.epoch.Store(man.Epoch)
		cl.nextMutID.Store(man.Watermark)
	}
	for h := range cl.hosts {
		cl.hosts[h] = &hostState{alive: true, shards: make(map[int]*shardState)}
	}
	cfg.Trace.Ensure(cfg.Ranks)
	if cfg.AutoCompact > 0 {
		go cl.compactManager()
	}
	if cl.autoSnapshot {
		go cl.snapManager()
	}

	built := make(chan error, cfg.Ranks)
	go cl.supervise(cfg, built)

	// Wait for every slot to pass (or fail) the build+replicate phase
	// before reporting the cluster ready; a failed build tears the group
	// down.
	var buildErr error
	for i := 0; i < cfg.Ranks; i++ {
		if err := <-built; err != nil && buildErr == nil {
			buildErr = err
		}
	}
	if buildErr != nil {
		<-cl.dead
		return nil, fmt.Errorf("serve: building resident graph: %w", buildErr)
	}
	if st != nil && cfg.AuditInterval > 0 {
		cl.auditor = st.StartAuditor(cfg.AuditInterval)
	}
	return cl, nil
}

// rankLoop is the rank-side dispatch loop: receive a job via the command
// broadcast, run it, loop. Rank 0 additionally feeds the broadcast from the
// submit channel and reports each job's outcome. All ranks leave together
// when a shutdown descriptor is broadcast. Queries traverse the slot's
// served graph (base, or the materialized overlay after mutations);
// mutate and compact descriptors are intercepted before analytics.Run and
// alter the slot's shard replica — plus the host's unserved backups —
// in the same serialized job stream.
func (cl *Cluster) rankLoop(ctx *core.Ctx, sc *slotState) error {
	c := ctx.Comm
	rank := c.Rank()
	for {
		var p *pending
		var desc []byte
		if rank == 0 {
			select {
			case <-cl.quit:
				desc, _ = analytics.EncodeJob(&analytics.Job{Analytic: jobShutdown})
			case p = <-cl.submit:
				var err error
				desc, err = analytics.EncodeJob(p.job)
				if err != nil {
					p.resp <- outcome{err: fmt.Errorf("serve: encoding job: %w", err)}
					continue
				}
			}
		}
		desc, err := comm.Bcast(c, desc, 0)
		if err != nil {
			if p != nil {
				p.resp <- outcome{err: err}
			}
			return err
		}
		job, err := analytics.DecodeJob(desc)
		if err != nil {
			if p != nil {
				p.resp <- outcome{err: err}
			}
			return err
		}
		if job.Analytic == jobShutdown {
			return nil
		}
		if job.Analytic == jobNudge {
			if p != nil {
				p.resp <- outcome{}
			}
			continue
		}
		// Rank-side admission check. Validate is deterministic on the
		// broadcast descriptor, so every rank takes the same branch and
		// an invalid job skips the run without desynchronizing the group
		// (and without killing the resident cluster). The vertex space is
		// immutable under mutations, so NGlobal is safe to read unlocked.
		if err := job.Validate(sc.state.nGlobal); err != nil {
			if p != nil {
				p.resp <- outcome{err: err}
			}
			continue
		}

		// Job-scoped measurement: ResetStats zeroes both the Stats
		// breakdown and the attached obs counters, so two identical jobs
		// on the resident cluster report identical volumes.
		c.ResetStats()
		var res *analytics.JobResult
		var runErr error
		switch job.Analytic {
		case analytics.JobMutate:
			res, runErr = cl.runMutate(ctx, sc, job)
		case analytics.JobCompact:
			res, runErr = cl.runCompact(ctx, sc, job)
		case analytics.JobSnapshot:
			res, runErr = cl.runSnapshot(ctx, sc, job)
		default:
			var g *core.Graph
			if g, runErr = sc.state.serveGraph(); runErr == nil {
				res, runErr = analytics.Run(ctx, g, job)
			}
		}
		stats := c.TakeStats()
		if runErr != nil {
			if p != nil {
				p.resp <- outcome{err: runErr}
			}
			return runErr
		}
		if job.Mutating() {
			// Lockstep invalidation: a mutating job may have changed the
			// served graph on some shard, and rebuilding a plan is
			// collective, so every slot drops its plans here — whether or
			// not its own shard changed — and the next read rebuilds them
			// group-wide. A slot deciding this from local state would leave
			// its peers waiting in a build it never joins.
			ctx.Plans.Reset()
		}
		// Group-wide wire volume for the job; runs after TakeStats so it
		// is not charged to the job, and before the next job's ResetStats.
		sent, err := comm.Allreduce(c, stats.BytesSent, comm.OpSum)
		if err != nil {
			if p != nil {
				p.resp <- outcome{err: err}
			}
			return err
		}
		if p != nil {
			p.resp <- outcome{
				res: res,
				stats: JobStats{
					Rank0:       stats,
					SentBytes:   sent,
					Collectives: c.Metrics().Snapshot(),
				},
			}
		}
	}
}

// ErrClusterDown is returned by Run after the rank group has terminated.
var ErrClusterDown = errors.New("serve: cluster is down")

// ErrShardLost marks the unrecoverable failover outcome: some shard has no
// live replica left, so the group cannot be re-formed.
var ErrShardLost = errors.New("serve: shard lost all replicas")

// Run executes one job on the resident ranks and blocks until its result.
// The scheduler is the intended (sole) caller and submits one job at a
// time; concurrent calls are safe but serialize on the rank group. A
// submitted job survives failover: the submit channel is drained only by a
// live generation's rank 0, so a job queued while the group re-forms is
// simply picked up by the next generation.
func (cl *Cluster) Run(job *analytics.Job) (*analytics.JobResult, JobStats, error) {
	if job.Analytic == analytics.JobMutate && job.MutationID == 0 {
		// Direct callers get an id here; the scheduler assigns one at
		// dispatch time so ids ascend in application order even across
		// requeues. Concurrent direct mutate submission is the caller's
		// ordering responsibility.
		job.MutationID = cl.NextMutationID()
	}
	p := &pending{job: job, resp: make(chan outcome, 1)}
	select {
	case cl.submit <- p:
	case <-cl.dead:
		return nil, JobStats{}, cl.downErr()
	}
	select {
	case out := <-p.resp:
		if out.err != nil {
			return nil, JobStats{}, out.err
		}
		cl.jobsRun.Add(1)
		return out.res, out.stats, nil
	case <-cl.dead:
		// Rank 0 always answers an accepted pending before exiting, so a
		// dead cluster here means the buffered response raced the close.
		select {
		case out := <-p.resp:
			if out.err != nil {
				return nil, JobStats{}, out.err
			}
			cl.jobsRun.Add(1)
			return out.res, out.stats, nil
		default:
			return nil, JobStats{}, cl.downErr()
		}
	}
}

// downErr reports the terminal error with the cluster-down sentinel. The
// cause is wrapped (not flattened), so callers can still discriminate the
// originating rank's CommError kind — errors.As reaches through to the
// *comm.CommError and errors.Is sees ErrShardLost.
func (cl *Cluster) downErr() error {
	cl.errMu.Lock()
	err := cl.err
	cl.errMu.Unlock()
	if err != nil {
		return fmt.Errorf("%w: %w", ErrClusterDown, err)
	}
	return ErrClusterDown
}

// Close broadcasts shutdown to the resident ranks and waits for them to
// exit. Safe to call more than once; returns the group's terminal error,
// if any (clean shutdown returns nil).
func (cl *Cluster) Close() error {
	cl.closeOnce.Do(func() { close(cl.quit) })
	<-cl.dead
	if cl.auditor != nil {
		cl.auditor.Close()
	}
	cl.errMu.Lock()
	defer cl.errMu.Unlock()
	return cl.err
}

// Alive reports whether the rank group is still serving.
func (cl *Cluster) Alive() bool {
	select {
	case <-cl.dead:
		return false
	default:
		return true
	}
}

// Size returns the compute-slot (shard) count.
func (cl *Cluster) Size() int { return cl.size }

// Replicas returns how many hosts hold each shard.
func (cl *Cluster) Replicas() int { return cl.replicas }

// Generation returns the current compute-group generation (0 = initial).
func (cl *Cluster) Generation() uint64 { return cl.generation.Load() }

// AliveHosts returns how many hosts remain in the group. Hosts condemned
// through Kill but not yet consumed by a failover already count as gone —
// they are leaving, and the admin kill response should say so.
func (cl *Cluster) AliveHosts() int {
	cl.hostMu.Lock()
	defer cl.hostMu.Unlock()
	doomed := make(map[int]bool, len(cl.condemned))
	for _, h := range cl.condemned {
		doomed[h] = true
	}
	n := 0
	for i, h := range cl.hosts {
		if h.alive && !doomed[i] {
			n++
		}
	}
	return n
}

// FailoverStats snapshots the failover counters.
func (cl *Cluster) FailoverStats() obs.FailoverSnapshot { return cl.failover.Snapshot() }

// PlanStats snapshots slot 0's kernel-plan cache counters. Within a live
// generation every slot counts the same: plans are built and reset in
// lockstep.
func (cl *Cluster) PlanStats() obs.PlanSnapshot { return cl.planStats[0].Snapshot() }

// Epoch returns the logical graph snapshot id used in cache keys. It
// advances on every acknowledged mutation batch and every full compaction
// swap; the read is atomic so stats and cache-key construction never see
// a torn value mid-swap.
func (cl *Cluster) Epoch() uint64 { return cl.epoch.Load() }

// NumVertices and NumEdges describe the resident graph.
func (cl *Cluster) NumVertices() uint32 { return cl.n }

// NumEdges returns the resident graph's global directed live edge count
// (kept current by mutate jobs).
func (cl *Cluster) NumEdges() uint64 { return cl.m.Load() }

// BuildTime reports how long the one-time load+partition+convert took.
func (cl *Cluster) BuildTime() time.Duration { return cl.builtIn }

// JobsRun counts completed SPMD jobs.
func (cl *Cluster) JobsRun() uint64 { return cl.jobsRun.Load() }
