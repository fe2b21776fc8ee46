package analytics

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
)

// Multi-source variants of the two Graph500-style traversals. The serve
// layer coalesces pending single-source queries into one of these runs.
// A batch is the solo kernel once per source on one runner (bfsRunner on
// either layout, ssspRunner), so what a batch buys is one dispatch, one
// prologue — engine, halo lookup, pull edge mass, on a 2D shard the
// dense-fold width reduction; for SSSP the weight pass, the Δ reduction and
// the light/heavy split — and one retained scratch, and every source's
// answer, schedule and wire volume are those of its solo run. The graph is
// still swept once per source: sharing the sweep as well (a bit-parallel
// MS-BFS) pays only at batch sizes the service does not see (DESIGN.md §5f).

// MaxSources bounds the sources of one multi-source request: Job.Validate,
// checkRoots and the scheduler's batch cap all enforce it.
const MaxSources = 256

// checkRoots validates a multi-source root set against the graph.
func checkRoots(g *core.Graph, roots []uint32, what string) error {
	if len(roots) == 0 {
		return fmt.Errorf("analytics: %s with no sources", what)
	}
	if len(roots) > MaxSources {
		return fmt.Errorf("analytics: %s with %d sources (max %d)", what, len(roots), MaxSources)
	}
	for _, r := range roots {
		if r >= g.NGlobal {
			return fmt.Errorf("analytics: %s root %d outside %d vertices", what, r, g.NGlobal)
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
	if err := checkRoots(g, roots, "MultiBFS"); err != nil {
		return nil, err
	}
	k := len(roots)
	res := &MultiBFSResult{Levels: make([][]int32, k), Reached: make([]uint64, k), Depth: make([]int, k)}
	r := newBFSRunner(ctx, g, dir)
	for s, root := range roots {
		b, err := r.run(root)
		if err != nil {
			return nil, err
		}
		res.Levels[s], res.Reached[s], res.Depth[s] = b.Levels, b.Reached, b.Depth
		res.Traversal.Merge(b.Traversal)
	}
	return res, nil
}

// MultiSSSPResult carries one SSSP answer per source of a batched run.
type MultiSSSPResult struct {
	// Dist[s][v] is the shortest-path distance from source s to owned
	// local vertex v, or InfDistance if unreachable.
	Dist [][]uint64
	// Rounds is the number of Δ-stepping relaxation sub-rounds the batch
	// executed: the sum of the sources' own counts, each equal to its solo
	// run's.
	Rounds int
	// Reached[s] is the global number of vertices reachable from source s.
	Reached []uint64
	// Traversal sums the per-source runs' claim rounds and claim bytes.
	Traversal obs.TraversalStats
}

// MultiSSSP runs Δ-stepping (automatic Δ) from every root on one
// ssspRunner. Each source's distances, and its schedule, equal a solo SSSP
// call with the same root and weights.
func MultiSSSP(ctx *core.Ctx, g *core.Graph, roots []uint32, w WeightFunc) (*MultiSSSPResult, error) {
	if err := checkRoots(g, roots, "MultiSSSP"); err != nil {
		return nil, err
	}
	runs, err := ssspRuns(ctx, g, roots, edgeWeights{fn: w}, 0)
	if err != nil {
		return nil, err
	}
	res := &MultiSSSPResult{Dist: make([][]uint64, len(runs)), Reached: make([]uint64, len(runs))}
	for s, ss := range runs {
		res.Dist[s], res.Reached[s] = ss.Dist, ss.Reached
		res.Rounds += ss.Rounds
		res.Traversal.Merge(ss.Traversal)
	}
	return res, nil
}
