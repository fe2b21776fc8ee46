package analytics

// Span names emitted into the rank's tracer (obs package) by each
// analytic's driver loop — one span per level / iteration / round, so a
// captured trace shows exactly where an analytic spends its time between
// the comm/* spans the collectives emit underneath. The constants are the
// stable contract the golden-trace tests and the harness's per-phase table
// rely on; producers pass them as long-lived strings so emitting never
// allocates.
const (
	// SpanBFSLevel wraps one level-synchronous BFS round; arg is the local
	// frontier size entering the level.
	SpanBFSLevel = "bfs/level"
	// SpanPageRankIter wraps one PageRank power iteration; arg is the
	// iteration index.
	SpanPageRankIter = "pagerank/iter"
	// SpanLabelPropIter wraps one Label Propagation round; arg is the
	// iteration index.
	SpanLabelPropIter = "labelprop/iter"
	// SpanWCCColorRound wraps one hop of WCC's min-label coloring; arg is
	// the hop index.
	SpanWCCColorRound = "wcc/color-round"
	// SpanKCoreLevel wraps one 2^i threshold level of the approximate
	// k-core peel; arg is the level number i.
	SpanKCoreLevel = "kcore/level"
	// SpanKCorePeelRound wraps one claim round of a k-core threshold peel;
	// arg is the local death count of the round.
	SpanKCorePeelRound = "kcore/peel-round"
	// SpanColorHop wraps one hop of a coloring of KCoreApprox (a level's
	// largest-component cut) or of SCC's decomposition; arg is the hop index.
	SpanColorHop = "color/hop"
	// SpanSSSPWeigh wraps Δ-stepping's per-query weight pass (w evaluated
	// once per owned out-edge, summed for the default Δ); arg is the local
	// out-edge count.
	SpanSSSPWeigh = "sssp/weigh"
	// SpanSSSPSplit wraps the in-place light/heavy partition of the
	// weighted out-edges under Δ; arg is the local out-edge count.
	SpanSSSPSplit = "sssp/split"
	// SpanSSSPBucket wraps one settled Δ-stepping bucket (all its light
	// sub-rounds plus the heavy phase); arg is the local settled count.
	SpanSSSPBucket = "sssp/bucket"
	// SpanKCorePeel wraps one level of the exact k-core peel (all its
	// sub-rounds); arg is the coreness value k being peeled.
	SpanKCorePeel = "kcore/peel"
	// SpanSCCTrimRound wraps one trim round of SCC preprocessing; arg is
	// the local death count of the round.
	SpanSCCTrimRound = "scc/trim-round"
	// SpanSCCFwBw wraps the forward-backward pivot sweep of SCC.
	SpanSCCFwBw = "scc/fwbw"
	// SpanSCCColorRound wraps one color-decomposition outer round of SCC;
	// arg is the round index.
	SpanSCCColorRound = "scc/color-round"
	// SpanHarmonicVertex wraps one per-vertex harmonic-centrality sweep
	// (a reverse BFS plus reduction); arg is the vertex's global id.
	SpanHarmonicVertex = "harmonic/vertex"

	// Per-step direction spans of the adaptive frontier engine: every
	// BFS-like step emits exactly one of the pair alongside its per-level
	// span, naming the direction the step ran; arg is the local frontier
	// size entering the step. Decisions derive from globally reduced
	// values, so the sequence is identical on every rank of a run.
	SpanFrontierPush = "frontier/push"
	SpanFrontierPull = "frontier/pull"
)
