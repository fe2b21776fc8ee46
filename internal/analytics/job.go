package analytics

import (
	"encoding/json"
	"fmt"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/edge"
)

// Job is the uniform analytic request descriptor: every analytic the serve
// layer can run on a resident graph, with its parameters, in one flat
// JSON-able value. The serve daemon broadcasts an encoded Job to every rank
// and each rank dispatches it through Run, so the descriptor doubles as the
// rank-side wire protocol and the result-cache key material.
type Job struct {
	// Analytic selects the kernel: one of the Job* constants.
	Analytic string `json:"analytic"`
	// Sources are the query vertices for source-rooted analytics (BFS,
	// SSSP, Harmonic). More than one source runs them one after another in
	// one job (see multi.go). Ignored by whole-graph analytics.
	Sources []uint32 `json:"sources,omitempty"`
	// Dir selects BFS traversal direction: "out" (default), "in", "und".
	Dir string `json:"dir,omitempty"`
	// Iterations bounds iterative analytics (PageRank, LabelProp).
	Iterations int `json:"iterations,omitempty"`
	// Damping is the PageRank damping factor.
	Damping float64 `json:"damping,omitempty"`
	// Tolerance is the PageRank early-stop threshold (0 = fixed count).
	Tolerance float64 `json:"tolerance,omitempty"`
	// MaxWeight selects edge weights for weighted analytics (SSSP, weighted
	// PageRank): 0 means unit weights, else deterministic hash weights in
	// [1, MaxWeight] seeded by WeightSeed.
	MaxWeight  uint64 `json:"max_weight,omitempty"`
	WeightSeed uint64 `json:"weight_seed,omitempty"`
	// Delta is the Δ-stepping bucket width for SSSP (0 = auto: Meyer and
	// Sanders' ⌈4·W̄/d̄⌉ for mean weight W̄ and mean out-degree d̄, a thin
	// bucket). It changes the schedule and the bytes on the wire but never
	// the answer.
	Delta uint64 `json:"delta,omitempty"`
	// RandomTies and TieSeed configure LabelProp tie-breaking.
	RandomTies bool   `json:"random_ties,omitempty"`
	TieSeed    uint64 `json:"tie_seed,omitempty"`
	// Hybrid selects the traversal engine policy for BFS-like analytics
	// (bfs, harmonic, wcc): "adaptive" (default; also "" or "hybrid"),
	// "push" (always top-down, always-sparse exchange; also "sparse", "off"),
	// or "dense" (always bottom-up / dense exchange; also "pull"). Results
	// are bit-identical across policies; only wire format and work order
	// change. sssp, pagerank, wpagerank, labelprop and kcore have one wire
	// format and ignore it.
	Hybrid string `json:"hybrid,omitempty"`
	// Mutations is the ingest batch of a JobMutate descriptor: the ordered
	// edge inserts/deletes to route and apply. Ignored by analytics.
	Mutations edge.Batch `json:"mutations,omitempty"`
	// MutationID is the cluster-assigned id of a JobMutate batch. Replay
	// of an already-applied id (failover requeue) is a no-op on every
	// shard, so ingest is exactly-once per logical batch.
	MutationID uint64 `json:"mutation_id,omitempty"`
	// CompactVersion is the overlay version a JobCompact descriptor may
	// swap: shards only install their pre-materialized merged CSR if no
	// further batch applied since (otherwise the compaction is a no-op and
	// the caller retries).
	CompactVersion uint64 `json:"compact_version,omitempty"`
	// SnapshotEpoch is the store epoch a JobSnapshot descriptor persists
	// under: every replica file of the snapshot is named by it and the
	// manifest commits it.
	SnapshotEpoch uint64 `json:"snapshot_epoch,omitempty"`
}

// Analytic names accepted by Job.Analytic.
const (
	JobBFS              = "bfs"
	JobSSSP             = "sssp"
	JobHarmonic         = "harmonic"
	JobPageRank         = "pagerank"
	JobPageRankWeighted = "wpagerank"
	JobLabelProp        = "labelprop"
	JobWCC              = "wcc"
	JobKCore            = "kcore"
	// JobMutate and JobCompact are the streaming-ingest control jobs. They
	// ride the same broadcast dispatch as analytics so mutations serialize
	// with queries, but the serve layer intercepts them before Run.
	JobMutate  = "mutate"
	JobCompact = "compact"
	// JobSnapshot persists every served shard to the node-local shard store
	// and commits a manifest. It rides the serialized job stream like the
	// other control jobs so a snapshot captures one consistent epoch.
	JobSnapshot = "snapshot"
)

// Mutating reports whether the job is a serve-layer control job rather
// than a read-only analytic (ingest, compaction, snapshot — snapshot
// reads graph state but mutates the store). Mutating jobs are never
// cached, never batched, and never answered from another job's result.
func (j *Job) Mutating() bool {
	return j.Analytic == JobMutate || j.Analytic == JobCompact || j.Analytic == JobSnapshot
}

// SourceRooted reports whether the analytic takes query vertices (and is
// therefore batchable by source coalescing).
func (j *Job) SourceRooted() bool {
	switch j.Analytic {
	case JobBFS, JobSSSP, JobHarmonic:
		return true
	}
	return false
}

// Normalize fills parameter defaults in place so that equal queries have
// equal descriptors (the cache-key and batch-compatibility requirement).
func (j *Job) Normalize() {
	if m, err := core.ParseTraversalMode(j.Hybrid); err == nil {
		// Canonicalize policy aliases ("", "hybrid", "sparse", "pull", ...)
		// so equal queries share a cache key; Validate rejects the rest.
		switch m {
		case core.TraversePush:
			j.Hybrid = "push"
		case core.TraverseDense:
			j.Hybrid = "dense"
		default:
			j.Hybrid = "adaptive"
		}
	}
	switch j.Analytic {
	case JobBFS:
		if j.Dir == "" {
			j.Dir = "out"
		}
	case JobPageRank, JobPageRankWeighted:
		if j.Iterations <= 0 {
			j.Iterations = 10
		}
		if j.Damping == 0 {
			j.Damping = 0.85
		}
	case JobLabelProp:
		if j.Iterations <= 0 {
			j.Iterations = 10
		}
	}
}

// maxJobIterations caps iterative requests so one query cannot occupy the
// cluster unboundedly.
const maxJobIterations = 10_000

// maxJobWeight caps a job's max_weight at 2^32, so that a path length or a
// vertex's out-weight sum over fewer than 2^32 edges fits in 64 bits.
const maxJobWeight uint64 = 1 << 32

// Validate checks the descriptor against a graph with n global vertices.
func (j *Job) Validate(n uint32) error {
	switch j.Analytic {
	case JobBFS, JobSSSP, JobHarmonic:
		if len(j.Sources) == 0 {
			return fmt.Errorf("analytics: %s job needs at least one source", j.Analytic)
		}
		if len(j.Sources) > MaxSources {
			return fmt.Errorf("analytics: %s job with %d sources (max %d)", j.Analytic, len(j.Sources), MaxSources)
		}
		for _, s := range j.Sources {
			if s >= n {
				return fmt.Errorf("analytics: %s source %d outside %d vertices", j.Analytic, s, n)
			}
		}
	case JobPageRank, JobPageRankWeighted, JobLabelProp:
		if j.Iterations < 0 || j.Iterations > maxJobIterations {
			return fmt.Errorf("analytics: %s job with %d iterations (max %d)", j.Analytic, j.Iterations, maxJobIterations)
		}
		if j.Analytic != JobLabelProp && !(j.Damping > 0 && j.Damping <= 1) {
			return fmt.Errorf("analytics: %s damping %g outside (0, 1]", j.Analytic, j.Damping)
		}
	case JobWCC, JobKCore:
	case JobMutate:
		if len(j.Mutations) == 0 {
			return fmt.Errorf("analytics: mutate job with empty batch")
		}
		if len(j.Mutations) > edge.MaxBatch {
			return fmt.Errorf("analytics: mutate job with %d mutations (max %d)", len(j.Mutations), edge.MaxBatch)
		}
		if err := j.Mutations.Validate(n); err != nil {
			return err
		}
	case JobCompact, JobSnapshot:
	default:
		return fmt.Errorf("analytics: unknown analytic %q", j.Analytic)
	}
	if (j.Analytic == JobSSSP || j.Analytic == JobPageRankWeighted) && j.MaxWeight > maxJobWeight {
		return fmt.Errorf("analytics: %s max_weight %d above %d", j.Analytic, j.MaxWeight, maxJobWeight)
	}
	if j.Analytic == JobBFS {
		switch j.Dir {
		case "", "out", "in", "und":
		default:
			return fmt.Errorf("analytics: bfs dir %q (want out, in, or und)", j.Dir)
		}
	}
	if _, err := core.ParseTraversalMode(j.Hybrid); err != nil {
		return fmt.Errorf("analytics: %s job: %w", j.Analytic, err)
	}
	return nil
}

// dir maps the descriptor's direction string onto the kernel enum.
func (j *Job) dir() Dir {
	switch j.Dir {
	case "in":
		return Backward
	case "und":
		return Und
	}
	return Forward
}

// weights is the descriptor's edge weights as data: HashWeights(WeightSeed,
// MaxWeight), which is unit weights at MaxWeight 0.
func (j *Job) weights() edgeWeights {
	return edgeWeights{seed: j.WeightSeed, max: j.MaxWeight}
}

// EncodeJob serializes a descriptor for the rank-side command broadcast.
func EncodeJob(j *Job) ([]byte, error) { return json.Marshal(j) }

// DecodeJob is the inverse of EncodeJob.
func DecodeJob(b []byte) (*Job, error) {
	var j Job
	if err := json.Unmarshal(b, &j); err != nil {
		return nil, fmt.Errorf("analytics: decoding job: %w", err)
	}
	return &j, nil
}

// SourceSummary is the per-source slice of a job's answer.
type SourceSummary struct {
	Source uint32 `json:"source"`
	// Reached is the global number of vertices visited / reachable from
	// Source (BFS, SSSP).
	Reached uint64 `json:"reached,omitempty"`
	// Depth is the BFS eccentricity observed from Source.
	Depth int `json:"depth,omitempty"`
	// Score is the harmonic centrality of Source.
	Score float64 `json:"score,omitempty"`
}

// JobResult is the global summary of one analytic run. Every rank computes
// the identical value (all fields derive from collectives), so rank 0's
// copy answers the query; per-vertex arrays deliberately stay rank-local.
type JobResult struct {
	Analytic string `json:"analytic"`
	// Sources carries per-source answers for source-rooted analytics, in
	// the order of Job.Sources.
	Sources []SourceSummary `json:"sources,omitempty"`
	// Iterations / Rounds is the work the iterative or round-based kernel
	// performed; for a multi-source SSSP job, the sum over its sources.
	Iterations int `json:"iterations,omitempty"`
	Rounds     int `json:"rounds,omitempty"`
	// sourceRounds[i] is Sources[i]'s own share of Rounds (SSSP only), so
	// that ForSource can hand a batch member the Rounds of its solo run.
	sourceRounds []int
	// MaxScore is the global maximum PageRank score (plain or weighted).
	MaxScore float64 `json:"max_score,omitempty"`
	// MaxCoreness is the global maximum exact coreness (the degeneracy).
	MaxCoreness uint32 `json:"max_coreness,omitempty"`
	// NumComponents and LargestSize describe WCC output.
	NumComponents uint64 `json:"num_components,omitempty"`
	LargestSize   uint64 `json:"largest_size,omitempty"`
	// Communities is the number of distinct LabelProp communities.
	Communities uint64 `json:"communities,omitempty"`
	// Applied is the record count a mutate job processed (or, for a
	// compact job, the number of shards that swapped epochs).
	Applied uint64 `json:"applied,omitempty"`
	// Epoch is the graph epoch after a mutate/compact job.
	Epoch uint64 `json:"epoch,omitempty"`
	// Compacted reports whether a compact job swapped every shard (false
	// means a mutation raced the merge and the compaction was skipped).
	Compacted bool `json:"compacted,omitempty"`
	// Persisted reports whether a snapshot job committed its manifest;
	// Detail carries its failure reason when it did not. Applied counts the
	// replica files written and Epoch carries the committed store epoch.
	Persisted bool   `json:"persisted,omitempty"`
	Detail    string `json:"detail,omitempty"`
}

// ForSource projects a batched result down to the single-source answer for
// s — byte for byte (Canonical) the result of running s alone — or nil if s
// is not among the result's sources. Whole-graph results project to
// themselves.
func (r *JobResult) ForSource(s uint32) *JobResult {
	if len(r.Sources) == 0 {
		return r
	}
	for i, ss := range r.Sources {
		if ss.Source == s {
			m := &JobResult{Analytic: r.Analytic, Sources: []SourceSummary{ss}}
			if r.sourceRounds != nil {
				m.Rounds, m.sourceRounds = r.sourceRounds[i], r.sourceRounds[i:i+1]
			}
			return m
		}
	}
	return nil
}

// Canonical returns the result's canonical byte encoding: the JSON form
// with the struct's fixed field order. Two results are the same answer iff
// their canonical bytes are equal — the equality the failover chaos
// battery asserts between a degraded cluster's answers and the healthy
// baseline.
func (r *JobResult) Canonical() []byte {
	b, err := json.Marshal(r)
	if err != nil {
		// A flat struct of scalars and slices cannot fail to marshal.
		panic(fmt.Sprintf("analytics: canonical encoding: %v", err))
	}
	return b
}

// Run dispatches a validated descriptor to its kernel. Must be called
// collectively: every rank passes an identical job, and every rank returns
// the identical global summary.
func Run(ctx *core.Ctx, g *core.Graph, job *Job) (*JobResult, error) {
	if err := job.Validate(g.NGlobal); err != nil {
		return nil, err
	}
	if job.Mutating() {
		// Ingest/compaction need shard overlay state, which only the serve
		// layer holds; reaching Run means a dispatch bug.
		return nil, fmt.Errorf("analytics: %s job cannot run as an analytic", job.Analytic)
	}
	// A non-empty job policy overrides the context's mode for this run
	// (alpha/beta stay whatever the process configured; an empty field
	// keeps the process default). Every rank decodes the same job, so the
	// override is uniform.
	saved := ctx.Traverse
	if job.Hybrid != "" {
		mode, err := core.ParseTraversalMode(job.Hybrid)
		if err != nil {
			return nil, err
		}
		ctx.Traverse.Mode = mode
	}
	defer func() { ctx.Traverse = saved }()
	res := &JobResult{Analytic: job.Analytic}
	switch job.Analytic {
	case JobBFS:
		if len(job.Sources) == 1 {
			b, err := BFS(ctx, g, job.Sources[0], job.dir())
			if err != nil {
				return nil, err
			}
			res.Sources = []SourceSummary{{Source: job.Sources[0], Reached: b.Reached, Depth: b.Depth}}
		} else {
			mb, err := MultiBFS(ctx, g, job.Sources, job.dir())
			if err != nil {
				return nil, err
			}
			for s, src := range job.Sources {
				res.Sources = append(res.Sources, SourceSummary{Source: src, Reached: mb.Reached[s], Depth: mb.Depth[s]})
			}
		}
	case JobSSSP:
		runs, err := ssspRuns(ctx, g, job.Sources, job.weights(), job.Delta)
		if err != nil {
			return nil, err
		}
		for s, ss := range runs {
			res.Rounds += ss.Rounds
			res.sourceRounds = append(res.sourceRounds, ss.Rounds)
			res.Sources = append(res.Sources, SourceSummary{Source: job.Sources[s], Reached: ss.Reached})
		}
	case JobHarmonic:
		// One reverse BFS plus a scalar reduce per source, on one runner.
		r := newBFSRunner(ctx, g, Backward)
		for _, src := range job.Sources {
			hc, err := r.harmonic(src)
			if err != nil {
				return nil, err
			}
			res.Sources = append(res.Sources, SourceSummary{Source: src, Score: hc})
		}
	case JobPageRank, JobPageRankWeighted:
		// Plain PageRank, and weighted at max_weight 0, take the unit path.
		var w *edgeWeights
		if job.Analytic == JobPageRankWeighted && job.MaxWeight != 0 {
			wt := job.weights()
			w = &wt
		}
		pr, err := pageRank(ctx, g, PageRankOptions{
			Iterations: job.Iterations, Damping: job.Damping, Tolerance: job.Tolerance,
		}, w, nil)
		if err != nil {
			return nil, err
		}
		res.Iterations = pr.Iterations
		var localMax float64
		for _, s := range pr.Scores {
			if s > localMax {
				localMax = s
			}
		}
		res.MaxScore, err = comm.Allreduce(ctx.Comm, localMax, comm.OpMax)
		if err != nil {
			return nil, err
		}
	case JobKCore:
		kc, err := KCoreExact(ctx, g)
		if err != nil {
			return nil, err
		}
		res.Rounds = kc.Rounds
		res.MaxCoreness = kc.MaxCore
	case JobLabelProp:
		lp, err := LabelProp(ctx, g, LabelPropOptions{
			Iterations: job.Iterations, RandomTies: job.RandomTies, TieSeed: job.TieSeed,
		})
		if err != nil {
			return nil, err
		}
		res.Iterations = lp.Iterations
		// Distinct-label count (not countRepresentatives: a community's
		// namesake vertex may itself have adopted a different label).
		sizes, err := SizeDistribution(ctx, g, lp.Labels)
		if err != nil {
			return nil, err
		}
		res.Communities = uint64(len(sizes))
	case JobWCC:
		wc, err := WCC(ctx, g)
		if err != nil {
			return nil, err
		}
		res.NumComponents = wc.NumComponents
		res.LargestSize = wc.LargestSize
	}
	return res, nil
}
