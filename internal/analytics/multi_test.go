package analytics

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

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
					mb, err := MultiBFS(ctx, g, roots, dir)
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
				runs, err := ssspRuns(ctx, g, roots, edgeWeights{fn: w}, 0)
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

func TestMultiSourceValidation(t *testing.T) {
	tg := makeTestGraphs(t)[0]
	runConfigs(t, tg, func(ctx *core.Ctx, g *core.Graph) error {
		if _, err := MultiBFS(ctx, g, nil, Forward); err == nil {
			return fmt.Errorf("MultiBFS accepted empty roots")
		}
		if _, err := MultiBFS(ctx, g, []uint32{g.NGlobal}, Forward); err == nil {
			return fmt.Errorf("MultiBFS accepted out-of-range root")
		}
		big := make([]uint32, MaxSources+1)
		if _, err := MultiBFS(ctx, g, big, Forward); err == nil {
			return fmt.Errorf("MultiBFS accepted %d sources", len(big))
		}
		if _, err := ssspRuns(ctx, g, []uint32{0, g.NGlobal}, edgeWeights{fn: UnitWeights}, 0); err == nil {
			return fmt.Errorf("ssspRuns accepted out-of-range root")
		}
		return nil
	})
}
