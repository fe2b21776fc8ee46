package analytics

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"

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
	// one job, on one runner (see Run).
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
	// (bfs, harmonic, wcc): "adaptive" (the default), "push" (always
	// top-down, always-sparse exchange) or "dense" (always bottom-up / dense
	// exchange). Results are bit-identical across policies; only wire format
	// and work order change.
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

// MaxSources bounds the sources of one source-rooted job: Validate and the
// scheduler's batch cap both enforce it.
const MaxSources = 256

// maxJobIterations caps iterative requests so one query cannot occupy the
// cluster unboundedly.
const maxJobIterations = 10_000

// maxJobWeight caps a job's max_weight at 2^32, so that a path length or a
// vertex's out-weight sum over fewer than 2^32 edges fits in 64 bits.
const maxJobWeight uint64 = 1 << 32

// field is a set of Job parameters, one bit each. A parameter may span two
// struct fields (the weights are MaxWeight and WeightSeed).
type field uint16

const (
	fSources field = 1 << iota
	fDir
	fIterations
	fDamping
	fTolerance
	fWeights // MaxWeight, WeightSeed
	fDelta
	fTies // RandomTies, TieSeed
	fHybrid
	fMutations // Mutations, MutationID
	fCompactVersion
	fSnapshotEpoch
)

// params declares each parameter once: how to clear it, its default (nil:
// the zero value) and its check against a graph of n vertices (nil: any
// value). A kind's row picks the parameters it reads; the rest are cleared.
var params = []struct {
	f     field
	clear func(j *Job)
	fill  func(j *Job)
	check func(j *Job, n uint32) error
}{
	{fSources, func(j *Job) { j.Sources = nil }, nil, func(j *Job, n uint32) error {
		if len(j.Sources) == 0 || len(j.Sources) > MaxSources {
			return fmt.Errorf("analytics: %s job with %d sources (want 1 to %d)", j.Analytic, len(j.Sources), MaxSources)
		}
		s := slices.Max(j.Sources)
		return jobErr(s >= n, "%s source %d outside %d vertices", j.Analytic, s, n)
	}},
	{fDir, func(j *Job) { j.Dir = "" }, func(j *Job) { j.Dir = cmp.Or(j.Dir, "out") }, func(j *Job, _ uint32) error {
		return jobErr(!slices.Contains([]string{"", "out", "in", "und"}, j.Dir), "bfs dir %q (want out, in, or und)", j.Dir)
	}},
	{fIterations, func(j *Job) { j.Iterations = 0 }, func(j *Job) { j.Iterations = cmp.Or(max(j.Iterations, 0), 10) }, func(j *Job, _ uint32) error {
		return jobErr(j.Iterations < 0 || j.Iterations > maxJobIterations, "%s job with %d iterations (max %d)", j.Analytic, j.Iterations, maxJobIterations)
	}},
	{fDamping, func(j *Job) { j.Damping = 0 }, func(j *Job) { j.Damping = cmp.Or(j.Damping, 0.85) }, func(j *Job, _ uint32) error {
		return jobErr(!(j.Damping > 0 && j.Damping <= 1), "%s damping %g outside (0, 1]", j.Analytic, j.Damping)
	}},
	{fTolerance, func(j *Job) { j.Tolerance = 0 }, nil, nil},
	{fWeights, func(j *Job) { j.MaxWeight, j.WeightSeed = 0, 0 }, nil, func(j *Job, _ uint32) error {
		return jobErr(j.MaxWeight > maxJobWeight, "%s max_weight %d above %d", j.Analytic, j.MaxWeight, maxJobWeight)
	}},
	{fDelta, func(j *Job) { j.Delta = 0 }, nil, nil},
	{fTies, func(j *Job) { j.RandomTies, j.TieSeed = false, 0 }, nil, nil},
	{fHybrid, func(j *Job) { j.Hybrid = "" }, func(j *Job) { j.Hybrid = cmp.Or(j.Hybrid, "adaptive") }, func(j *Job, _ uint32) error {
		_, err := core.ParseTraversalMode(j.Hybrid)
		return jobErr(err != nil, "%s job: %w", j.Analytic, err)
	}},
	{fMutations, func(j *Job) { j.Mutations, j.MutationID = nil, 0 }, nil, func(j *Job, n uint32) error {
		if len(j.Mutations) == 0 || len(j.Mutations) > edge.MaxBatch {
			return fmt.Errorf("analytics: mutate job with %d mutations (want 1 to %d)", len(j.Mutations), edge.MaxBatch)
		}
		return j.Mutations.Validate(n)
	}},
	{fCompactVersion, func(j *Job) { j.CompactVersion = 0 }, nil, nil},
	{fSnapshotEpoch, func(j *Job) { j.SnapshotEpoch = 0 }, nil, nil},
}

// jobErr is a validation error when bad holds, nil otherwise.
func jobErr(bad bool, format string, a ...any) error {
	if bad {
		return fmt.Errorf("analytics: "+format, a...)
	}
	return nil
}

// soloRun answers one source of a source-rooted job on the job's runner,
// exactly as a job with that source alone would: its summary and the
// rounds it took.
type soloRun func(src uint32) (SourceSummary, int, error)

// kind is one row of the job table.
type kind struct {
	// reads is the parameters the run reads; Normalize clears the others,
	// so a normalized job names its answer.
	reads field
	// same is the parameters among reads that change the schedule and the
	// wire format but never the answer (pinned by the cross-mode and
	// cross-Δ suites); AnswerKey leaves them out.
	same field
	// mutating marks the serve-layer control jobs (ingest, compaction,
	// snapshot): never cached, never batched, never run here.
	mutating bool
	// prologue, set for a source-rooted kind, builds the job's runner once
	// and returns its per-source call. A batch is that call once per
	// source, so it buys one dispatch and one prologue.
	prologue func(ctx *core.Ctx, g *core.Graph, j *Job) (soloRun, error)
	// run answers a whole-graph kind into res.
	run func(ctx *core.Ctx, g *core.Graph, j *Job, res *JobResult) error
}

// kinds is the job table: one row per Job* name.
var kinds = map[string]kind{
	JobBFS:              {reads: fSources | fDir | fHybrid, same: fHybrid, prologue: bfsPrologue},
	JobSSSP:             {reads: fSources | fWeights | fDelta, same: fDelta, prologue: ssspPrologue},
	JobHarmonic:         {reads: fSources | fHybrid, same: fHybrid, prologue: harmonicPrologue},
	JobPageRank:         {reads: fIterations | fDamping | fTolerance, run: runPageRank},
	JobPageRankWeighted: {reads: fIterations | fDamping | fTolerance | fWeights, run: runPageRank},
	JobLabelProp:        {reads: fIterations | fTies, run: runLabelProp},
	JobWCC:              {reads: fHybrid, same: fHybrid, run: runWCC},
	JobKCore:            {run: runKCore},
	JobMutate:           {reads: fMutations, mutating: true},
	JobCompact:          {reads: fCompactVersion, mutating: true},
	JobSnapshot:         {reads: fSnapshotEpoch, mutating: true},
}

// Mutating reports whether the job is a serve-layer control job rather
// than a read-only analytic. Mutating jobs are never cached, never
// batched, and never answered from another job's result.
func (j *Job) Mutating() bool { return kinds[j.Analytic].mutating }

// SourceRooted reports whether the analytic takes query vertices (and is
// therefore batchable by source coalescing).
func (j *Job) SourceRooted() bool { return kinds[j.Analytic].prologue != nil }

// Normalize fills the defaults of the parameters the job's kind reads and
// clears the rest, in place, so that equal queries have equal descriptors.
// An unknown analytic is left as it is for Validate to reject.
func (j *Job) Normalize() {
	k, ok := kinds[j.Analytic]
	if !ok {
		return
	}
	for _, p := range params {
		if k.reads&p.f == 0 {
			p.clear(j)
		} else if p.fill != nil {
			p.fill(j)
		}
	}
}

// AnswerKey identifies a normalized job's answer on a given graph: the job
// without the parameters that never change its answer. Jobs with equal
// keys have byte-identical Canonical results.
func (j *Job) AnswerKey() string {
	a := *j
	same := kinds[j.Analytic].same
	for _, p := range params {
		if same&p.f != 0 {
			p.clear(&a)
		}
	}
	return fmt.Sprintf("%v", a)
}

// Validate checks the descriptor against a graph with n global vertices:
// every parameter its kind reads. The others play no part in the run.
func (j *Job) Validate(n uint32) error {
	k, ok := kinds[j.Analytic]
	if !ok {
		return fmt.Errorf("analytics: unknown analytic %q", j.Analytic)
	}
	for _, p := range params {
		if k.reads&p.f != 0 && p.check != nil {
			if err := p.check(j, n); err != nil {
				return err
			}
		}
	}
	return nil
}

// jobDirs maps a descriptor's direction onto the kernel enum; "out" and ""
// are Forward, the zero Dir.
var jobDirs = map[string]Dir{"in": Backward, "und": Und}

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
	// sourceRounds[i] is Sources[i]'s own share of Rounds (zero but for
	// SSSP), so that ForSource can hand a batch member the Rounds of its
	// solo run.
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

// Run dispatches a validated descriptor through its kind's row. Must be
// called collectively: every rank passes an identical job, and every rank
// returns the identical global summary.
func Run(ctx *core.Ctx, g *core.Graph, job *Job) (*JobResult, error) {
	if err := job.Validate(g.NGlobal); err != nil {
		return nil, err
	}
	k := kinds[job.Analytic]
	if k.mutating {
		// Ingest/compaction need shard overlay state, which only the serve
		// layer holds; reaching Run means a dispatch bug.
		return nil, fmt.Errorf("analytics: %s job cannot run as an analytic", job.Analytic)
	}
	// A non-empty job policy overrides the context's mode for this run (an
	// empty field keeps the process default). Every rank decodes the same
	// job, so the override is uniform.
	if k.reads&fHybrid != 0 && job.Hybrid != "" {
		mode, err := core.ParseTraversalMode(job.Hybrid)
		if err != nil {
			return nil, err
		}
		saved := ctx.Traverse
		ctx.Traverse = mode
		defer func() { ctx.Traverse = saved }()
	}
	res := &JobResult{Analytic: job.Analytic}
	if k.prologue == nil {
		if err := k.run(ctx, g, job, res); err != nil {
			return nil, err
		}
		return res, nil
	}
	solo, err := k.prologue(ctx, g, job)
	if err != nil {
		return nil, err
	}
	for _, src := range job.Sources {
		ss, rounds, err := solo(src)
		if err != nil {
			return nil, err
		}
		res.Sources = append(res.Sources, ss)
		res.Rounds += rounds
		res.sourceRounds = append(res.sourceRounds, rounds)
	}
	return res, nil
}

// bfsPrologue is the bfs row's: one BFS runner, one traversal per source.
func bfsPrologue(ctx *core.Ctx, g *core.Graph, j *Job) (soloRun, error) {
	r, err := bfsRunnerFor(ctx, g)
	if err != nil {
		return nil, err
	}
	dir := jobDirs[j.Dir]
	return func(src uint32) (SourceSummary, int, error) {
		b, err := r.run(ctx, src, dir)
		if err != nil {
			return SourceSummary{}, 0, err
		}
		return SourceSummary{Source: src, Reached: b.Reached, Depth: b.Depth}, 0, nil
	}, nil
}

// harmonicPrologue is the harmonic row's: one BFS runner, one reverse BFS
// plus a scalar reduce per source.
func harmonicPrologue(ctx *core.Ctx, g *core.Graph, _ *Job) (soloRun, error) {
	r, err := bfsRunnerFor(ctx, g)
	if err != nil {
		return nil, err
	}
	return func(src uint32) (SourceSummary, int, error) {
		hc, err := r.harmonic(ctx, src)
		return SourceSummary{Source: src, Score: hc}, 0, err
	}, nil
}

// ssspPrologue is the sssp row's: the weight pass, the Δ reduction and the
// light/heavy split once per job, then one Δ-stepping run per source.
func ssspPrologue(ctx *core.Ctx, g *core.Graph, j *Job) (soloRun, error) {
	r, err := newSSSPRunner(ctx, g, j.weights(), j.Delta)
	if err != nil {
		return nil, err
	}
	return func(src uint32) (SourceSummary, int, error) {
		s, err := r.run(src)
		if err != nil {
			return SourceSummary{}, 0, err
		}
		return SourceSummary{Source: src, Reached: s.Reached}, s.Rounds, nil
	}, nil
}

// runPageRank answers pagerank and wpagerank: plain PageRank, and weighted
// at max_weight 0, take the unit path.
func runPageRank(ctx *core.Ctx, g *core.Graph, j *Job, res *JobResult) error {
	var w *edgeWeights
	if j.Analytic == JobPageRankWeighted && j.MaxWeight != 0 {
		wt := j.weights()
		w = &wt
	}
	pr, err := pageRank(ctx, g, PageRankOptions{
		Iterations: j.Iterations, Damping: j.Damping, Tolerance: j.Tolerance,
	}, w, nil)
	if err != nil {
		return err
	}
	res.Iterations = pr.Iterations
	var localMax float64
	for _, s := range pr.Scores {
		if s > localMax {
			localMax = s
		}
	}
	res.MaxScore, err = comm.Allreduce(ctx.Comm, localMax, comm.OpMax)
	return err
}

func runLabelProp(ctx *core.Ctx, g *core.Graph, j *Job, res *JobResult) error {
	lp, err := LabelProp(ctx, g, LabelPropOptions{
		Iterations: j.Iterations, RandomTies: j.RandomTies, TieSeed: j.TieSeed,
	})
	if err != nil {
		return err
	}
	res.Iterations = lp.Iterations
	// Distinct-label count (not countRepresentatives: a community's
	// namesake vertex may itself have adopted a different label).
	sizes, err := SizeDistribution(ctx, g, lp.Labels)
	res.Communities = uint64(len(sizes))
	return err
}

func runWCC(ctx *core.Ctx, g *core.Graph, _ *Job, res *JobResult) error {
	wc, err := WCC(ctx, g)
	if err != nil {
		return err
	}
	res.NumComponents, res.LargestSize = wc.NumComponents, wc.LargestSize
	return nil
}

func runKCore(ctx *core.Ctx, g *core.Graph, _ *Job, res *JobResult) error {
	kc, err := KCoreExact(ctx, g)
	if err != nil {
		return err
	}
	res.Rounds, res.MaxCoreness = kc.Rounds, kc.MaxCore
	return nil
}
