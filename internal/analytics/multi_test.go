package analytics

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// multiBFSResult is one BFS answer per source of a batched run, levels
// included: a JobResult keeps only each source's summary.
type multiBFSResult struct {
	// Levels[s][v] is the depth of owned local vertex v from source s, or
	// -1 if unreachable.
	Levels  [][]int32
	Reached []uint64
	Depth   []int
	// Traversal sums the sources' step choices and wire volume.
	Traversal obs.TraversalStats
}

// multiBFS runs the bfs row's runner loop — one runner from bfsRunnerFor,
// then one traversal per root — and keeps every source's levels.
func multiBFS(ctx *core.Ctx, g *core.Graph, roots []uint32, dir Dir) (*multiBFSResult, error) {
	k := len(roots)
	res := &multiBFSResult{Levels: make([][]int32, k), Reached: make([]uint64, k), Depth: make([]int, k)}
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

// multiSSSP runs the sssp row's runner loop — one newSSSPRunner, then one
// Δ-stepping run per root — and keeps every source's full result.
func multiSSSP(ctx *core.Ctx, g *core.Graph, roots []uint32, w edgeWeights, delta uint64) ([]*SSSPResult, error) {
	r, err := newSSSPRunner(ctx, g, w, delta)
	if err != nil {
		return nil, err
	}
	runs := make([]*SSSPResult, len(roots))
	for s, root := range roots {
		if runs[s], err = r.run(root); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// multiRoots picks a spread of roots (some shared, some distinct) for the
// batched-vs-solo equivalence tests.
func multiRoots(n uint32) []uint32 {
	roots := []uint32{0, n / 3, n / 2, n - 1, 0} // duplicate source included
	for i, r := range roots {
		if r >= n {
			roots[i] = n - 1
		}
	}
	return roots
}

func TestMultiBFSMatchesSoloBFS(t *testing.T) {
	for _, tg := range makeTestGraphs(t) {
		for _, dir := range []Dir{Forward, Backward, Und} {
			tg, dir := tg, dir
			t.Run(fmt.Sprintf("%s/dir=%d", tg.name, dir), func(t *testing.T) {
				roots := multiRoots(tg.n)
				runConfigs(t, tg, func(ctx *core.Ctx, g *core.Graph) error {
					mb, err := multiBFS(ctx, g, roots, dir)
					if err != nil {
						return err
					}
					for s, root := range roots {
						solo, err := BFS(ctx, g, root, dir)
						if err != nil {
							return err
						}
						if mb.Reached[s] != solo.Reached {
							return fmt.Errorf("root %d: reached %d, solo %d", root, mb.Reached[s], solo.Reached)
						}
						if mb.Depth[s] != solo.Depth {
							return fmt.Errorf("root %d: depth %d, solo %d", root, mb.Depth[s], solo.Depth)
						}
						for v := range solo.Levels {
							if mb.Levels[s][v] != solo.Levels[v] {
								return fmt.Errorf("root %d: level[%d] = %d, solo %d",
									root, v, mb.Levels[s][v], solo.Levels[v])
							}
						}
					}
					return nil
				})
			})
		}
	}
}

func TestMultiSSSPMatchesSoloSSSP(t *testing.T) {
	for _, tg := range makeTestGraphs(t) {
		tg := tg
		t.Run(tg.name, func(t *testing.T) {
			roots := multiRoots(tg.n)
			w := HashWeights(42, 8)
			runConfigs(t, tg, func(ctx *core.Ctx, g *core.Graph) error {
				runs, err := multiSSSP(ctx, g, roots, edgeWeights{fn: w}, 0)
				if err != nil {
					return err
				}
				for s, root := range roots {
					solo, err := SSSP(ctx, g, root, w)
					if err != nil {
						return err
					}
					if runs[s].Reached != solo.Reached {
						return fmt.Errorf("root %d: reached %d, solo %d", root, runs[s].Reached, solo.Reached)
					}
					for v := range solo.Dist {
						if runs[s].Dist[v] != solo.Dist[v] {
							return fmt.Errorf("root %d: dist[%d] = %d, solo %d",
								root, v, runs[s].Dist[v], solo.Dist[v])
						}
					}
				}
				return nil
			})
		})
	}
}

// TestMultiSourceValidation: a source-rooted job with no sources, too many,
// or one outside the graph fails before any traversal runs.
func TestMultiSourceValidation(t *testing.T) {
	tg := makeTestGraphs(t)[0]
	runConfigs(t, tg, func(ctx *core.Ctx, g *core.Graph) error {
		for _, j := range []Job{
			{Analytic: JobBFS},
			{Analytic: JobBFS, Sources: []uint32{0, g.NGlobal}},
			{Analytic: JobBFS, Sources: make([]uint32, MaxSources+1)},
			{Analytic: JobSSSP, Sources: []uint32{0, g.NGlobal}},
			{Analytic: JobHarmonic, Sources: []uint32{g.NGlobal}},
		} {
			if _, err := Run(ctx, g, &j); err == nil {
				return fmt.Errorf("%s job with %d sources %v accepted", j.Analytic, len(j.Sources), j.Sources[:min(len(j.Sources), 2)])
			}
		}
		if _, err := multiSSSP(ctx, g, []uint32{0, g.NGlobal}, edgeWeights{fn: UnitWeights}, 0); err == nil {
			return fmt.Errorf("SSSP runner accepted out-of-range root")
		}
		return nil
	})
}
