package analytics

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
)

// Multi-source traversals. The serve layer coalesces pending single-source
// queries into one batched job: MultiBFS below, or for SSSP ssspRuns
// (deltasssp.go). A batch is the solo kernel once per source on one runner
// (bfsRunner on either layout, ssspRunner), so what a batch buys is one
// dispatch and one prologue — the halo lookup, on a 2D shard the engine and
// its dense-fold width reduction; for SSSP the weight pass, the Δ reduction,
// the light/heavy split and the scratch — and every source's answer,
// schedule and wire volume are those of its solo run. A 1D BFS runner
// outlives the job: it is retained with the generation's halo plan
// (bfsRunnerFor). The graph is still swept once per source: sharing the
// sweep as well (a bit-parallel MS-BFS) pays only at batch sizes the service
// does not see (DESIGN.md §5.4, batch rows).

// MaxSources bounds the sources of one multi-source request: Job.Validate,
// MultiBFS and the scheduler's batch cap all enforce it.
const MaxSources = 256

// checkRoots validates a multi-source root set against the graph.
func checkRoots(g *core.Graph, roots []uint32) error {
	if len(roots) == 0 {
		return fmt.Errorf("analytics: MultiBFS with no sources")
	}
	if len(roots) > MaxSources {
		return fmt.Errorf("analytics: MultiBFS with %d sources (max %d)", len(roots), MaxSources)
	}
	for _, r := range roots {
		if r >= g.NGlobal {
			return fmt.Errorf("analytics: MultiBFS root %d outside %d vertices", r, g.NGlobal)
		}
	}
	return nil
}

// MultiBFSResult carries one BFS answer per source of a batched run.
type MultiBFSResult struct {
	// Levels[s][v] is the depth of owned local vertex v from source s, or
	// -1 if unreachable.
	Levels [][]int32
	// Reached[s] is the global number of vertices visited from source s.
	Reached []uint64
	// Depth[s] is the eccentricity observed from source s (the root itself
	// is level 0, so never negative).
	Depth []int
	// Traversal sums the per-source traversals' step choices and wire
	// volume: exactly what the sources' solo BFS runs record, pull steps
	// included.
	Traversal obs.TraversalStats
}

// MultiBFS runs BFS from every root. Each source's answer is bit-identical
// to a solo BFS call with the same root and direction — it is that call, on
// one bfsRunner.
func MultiBFS(ctx *core.Ctx, g *core.Graph, roots []uint32, dir Dir) (*MultiBFSResult, error) {
	if err := checkRoots(g, roots); err != nil {
		return nil, err
	}
	k := len(roots)
	res := &MultiBFSResult{Levels: make([][]int32, k), Reached: make([]uint64, k), Depth: make([]int, k)}
	r, err := bfsRunnerFor(ctx, g)
	if err != nil {
		return nil, err
	}
	for s, root := range roots {
		b, err := r.run(ctx, root, dir)
		if err != nil {
			return nil, err
		}
		res.Levels[s], res.Reached[s], res.Depth[s] = b.Levels, b.Reached, b.Depth
		res.Traversal.Merge(b.Traversal)
	}
	return res, nil
}
