package analytics

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/seq"
)

// build1Dand2D builds the same edge list twice in one group: once under the
// 1D vertex-block layout and once under the 2D checkerboard. Both builds are
// collective, so every rank constructs both shards in the same order.
func build1Dand2D(ctx *core.Ctx, tg testGraph) (*core.Graph, *core.Graph, error) {
	src := core.ListSource{Edges: tg.edges}
	g1, _, err := core.Build(ctx, src, partition.NewVertexBlock(tg.n, ctx.Size()))
	if err != nil {
		return nil, nil, fmt.Errorf("1d build: %w", err)
	}
	g2, _, err := core.Build(ctx, src, partition.NewGrid(tg.n, ctx.Size()))
	if err != nil {
		return nil, nil, fmt.Errorf("2d build: %w", err)
	}
	if ctx.Size() > 1 && !g2.Is2D() {
		return nil, nil, fmt.Errorf("grid build did not produce a 2d shard")
	}
	return g1, g2, nil
}

// grid2DModes are the traversal policies the equivalence battery sweeps:
// results must be bit-identical across all of them and across layouts.
var grid2DModes = []struct {
	name string
	mode core.TraversalMode
}{
	{"adaptive", core.TraverseAdaptive},
	{"push", core.TraversePush},
	{"dense", core.TraverseDense},
}

// runGrid2DConfigs exercises a body over rank counts × traversal modes with
// both layouts built. p=6 covers a non-square 3×2 grid, p=8 a 4×2 grid.
func runGrid2DConfigs(t *testing.T, tg testGraph, body func(ctx *core.Ctx, g1, g2 *core.Graph) error) {
	t.Helper()
	for _, p := range []int{1, 2, 4, 6, 8} {
		for _, m := range grid2DModes {
			p, m := p, m
			t.Run(fmt.Sprintf("%s/p=%d/%s", tg.name, p, m.name), func(t *testing.T) {
				err := comm.RunLocal(p, func(c *comm.Comm) error {
					ctx := core.NewCtx(c, 2)
					ctx.Traverse = m.mode
					g1, g2, err := build1Dand2D(ctx, tg)
					if err != nil {
						return err
					}
					return body(ctx, g1, g2)
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestGrid2DBFSMatches1D(t *testing.T) {
	for _, tg := range makeTestGraphs(t) {
		runGrid2DConfigs(t, tg, func(ctx *core.Ctx, g1, g2 *core.Graph) error {
			for _, dir := range []Dir{Forward, Backward, Und} {
				for _, root := range []uint32{0, tg.n / 2} {
					r1, err := BFS(ctx, g1, root, dir)
					if err != nil {
						return fmt.Errorf("1d bfs: %w", err)
					}
					r2, err := BFS(ctx, g2, root, dir)
					if err != nil {
						return fmt.Errorf("2d bfs: %w", err)
					}
					if r1.Reached != r2.Reached || r1.Depth != r2.Depth {
						return fmt.Errorf("dir=%v root=%d: 2d (reached=%d depth=%d) vs 1d (reached=%d depth=%d)",
							dir, root, r2.Reached, r2.Depth, r1.Reached, r1.Depth)
					}
					l1, err := core.Gather(ctx, g1, r1.Levels)
					if err != nil {
						return err
					}
					l2, err := core.Gather(ctx, g2, r2.Levels)
					if err != nil {
						return err
					}
					for v := range l1 {
						if l1[v] != l2[v] {
							return fmt.Errorf("dir=%v root=%d: level[%d] = %d under 2d, %d under 1d",
								dir, root, v, l2[v], l1[v])
						}
					}
				}
			}
			return nil
		})
	}
}

func TestGrid2DWCCMatches1D(t *testing.T) {
	for _, tg := range makeTestGraphs(t) {
		runGrid2DConfigs(t, tg, func(ctx *core.Ctx, g1, g2 *core.Graph) error {
			r1, err := WCC(ctx, g1)
			if err != nil {
				return fmt.Errorf("1d wcc: %w", err)
			}
			r2, err := WCC(ctx, g2)
			if err != nil {
				return fmt.Errorf("2d wcc: %w", err)
			}
			if r1.NumComponents != r2.NumComponents || r1.LargestSize != r2.LargestSize {
				return fmt.Errorf("2d wcc (%d comps, largest %d) vs 1d (%d comps, largest %d)",
					r2.NumComponents, r2.LargestSize, r1.NumComponents, r1.LargestSize)
			}
			l1, err := core.Gather(ctx, g1, r1.Labels)
			if err != nil {
				return err
			}
			l2, err := core.Gather(ctx, g2, r2.Labels)
			if err != nil {
				return err
			}
			// Labels agree as a partition, not element-wise: the BFS-claimed
			// component carries the max-degree root's gid, and degree ties
			// resolve by rank order, which layout changes permute (exactly as
			// they already do between the 1D partitionings).
			if err := samePartition(l1, l2); err != nil {
				return fmt.Errorf("wcc partition: %w", err)
			}
			return nil
		})
	}
}

// diffBatchBFSvsSolo pins a k-root bfs batch on both layouts against solo BFS
// calls: every source's gathered level array is byte-identical to its solo
// run's on the 1D shard, and so are Reached and Depth.
func diffBatchBFSvsSolo(ctx *core.Ctx, g1, g2 *core.Graph, roots []uint32) error {
	for _, dir := range []Dir{Forward, Und} {
		m1, err := multiBFS(ctx, g1, roots, dir)
		if err != nil {
			return fmt.Errorf("1d multibfs: %w", err)
		}
		m2, err := multiBFS(ctx, g2, roots, dir)
		if err != nil {
			return fmt.Errorf("2d multibfs: %w", err)
		}
		for s, root := range roots {
			solo, err := BFS(ctx, g1, root, dir)
			if err != nil {
				return fmt.Errorf("solo bfs: %w", err)
			}
			want, err := core.Gather(ctx, g1, solo.Levels)
			if err != nil {
				return err
			}
			for _, got := range []struct {
				layout string
				g      *core.Graph
				m      *multiBFSResult
			}{{"1d", g1, m1}, {"2d", g2, m2}} {
				if got.m.Reached[s] != solo.Reached || got.m.Depth[s] != solo.Depth {
					return fmt.Errorf("dir=%v source %d: %s batch (reached=%d depth=%d) vs solo (reached=%d depth=%d)",
						dir, root, got.layout, got.m.Reached[s], got.m.Depth[s], solo.Reached, solo.Depth)
				}
				levels, err := core.Gather(ctx, got.g, got.m.Levels[s])
				if err != nil {
					return err
				}
				if !slices.Equal(levels, want) {
					return fmt.Errorf("dir=%v source %d: %s batch levels differ from the solo run's", dir, root, got.layout)
				}
			}
		}
	}
	return nil
}

func TestGrid2DMultiBFSMatches1D(t *testing.T) {
	gs := makeTestGraphs(t)
	for _, tg := range []testGraph{gs[4], gs[6]} { // rmat, multi
		roots := []uint32{0, tg.n - 1, tg.n / 2, 1}
		runGrid2DConfigs(t, tg, func(ctx *core.Ctx, g1, g2 *core.Graph) error {
			return diffBatchBFSvsSolo(ctx, g1, g2, roots)
		})
	}
}

// TestGrid2DMultiBFSMatches1DTCP reruns the batch-equals-solo pin over a
// real TCP mesh in every traversal mode.
func TestGrid2DMultiBFSMatches1DTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP mesh in -short mode")
	}
	tg := makeTestGraphs(t)[4] // rmat
	roots := []uint32{0, tg.n - 1, tg.n / 2, 1}
	for _, m := range grid2DModes {
		errs, _ := runScheduledTCPRanks(t, 4, comm.FaultSchedule{}, func(ctx *core.Ctx) error {
			ctx.Traverse = m.mode
			g1, g2, err := build1Dand2D(ctx, tg)
			if err != nil {
				return err
			}
			return diffBatchBFSvsSolo(ctx, g1, g2, roots)
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("%s rank %d: %v", m.name, r, err)
			}
		}
	}
}

// TestGrid2DRunnerSharesEngine pins what k roots on one 2D runner cost:
// the dense-fold width is reduced once (adaptive mode; the forced modes
// never reduce it), so every root after the first runs one Allreduce and
// that Allreduce's bytes under its solo BFS, and each root's step counters
// are its solo run's.
func TestGrid2DRunnerSharesEngine(t *testing.T) {
	tg := makeTestGraphs(t)[4] // rmat
	roots := []uint32{0, tg.n - 1, tg.n / 2, 1}
	runGrid2DConfigs(t, tg, func(ctx *core.Ctx, _, g *core.Graph) error {
		if !g.Is2D() {
			return nil // p=1 has no grid
		}
		m := obs.NewMetrics()
		g.Grid.Group.SetMetrics(m)
		defer g.Grid.Group.SetMetrics(nil)
		measure := func(run func() (*BFSResult, error)) (*BFSResult, uint64, uint64, error) {
			m.Reset()
			b, err := run()
			return b, m.Collective(obs.CAllreduce).Calls, m.Total().WireBytesOut, err
		}
		_, _, widthBytes, err := measure(func() (*BFSResult, error) {
			_, err := comm.Allreduce(ctx.Comm, uint64(1), comm.OpSum)
			return nil, err
		})
		if err != nil {
			return err
		}
		shared := uint64(0) // Allreduces a later root saves
		if ctx.Traverse == core.TraverseAdaptive {
			shared = 1
		}
		r, err := bfsRunnerFor(ctx, g)
		if err != nil {
			return err
		}
		for s, root := range roots {
			solo, soloCalls, soloBytes, err := measure(func() (*BFSResult, error) { return BFS(ctx, g, root, Und) })
			if err != nil {
				return err
			}
			got, calls, bytes, err := measure(func() (*BFSResult, error) { return r.run(ctx, root, Und) })
			if err != nil {
				return err
			}
			if got.Traversal != solo.Traversal {
				return fmt.Errorf("root %d: runner stats %+v, solo %+v", root, got.Traversal, solo.Traversal)
			}
			saved := shared
			if s == 0 {
				saved = 0 // the first root pays for the engine
			}
			if calls+saved != soloCalls || bytes+saved*widthBytes != soloBytes {
				return fmt.Errorf("root %d (#%d on the runner): %d Allreduces and %d bytes, solo %d and %d, want %d Allreduce(s) of %d bytes fewer",
					root, s, calls, bytes, soloCalls, soloBytes, saved, widthBytes)
			}
		}
		return nil
	})
}

// TestGrid2DJobCanonicalMatches1D is the acceptance pin: the byte encoding
// of a job's result is identical under both layouts for every 2D-capable
// analytic, on every rank.
func TestGrid2DJobCanonicalMatches1D(t *testing.T) {
	gs := makeTestGraphs(t)
	jobs := []*Job{
		{Analytic: JobBFS, Sources: []uint32{0}, Dir: "out"},
		{Analytic: JobBFS, Sources: []uint32{1}, Dir: "in"},
		{Analytic: JobBFS, Sources: []uint32{0}, Dir: "und", Hybrid: "dense"},
		{Analytic: JobBFS, Sources: []uint32{0, 1, 2, 3}, Dir: "out"},
		{Analytic: JobBFS, Sources: []uint32{0, 2}, Dir: "und", Hybrid: "push"},
		{Analytic: JobWCC},
		// Harmonic is 2D-capable but its score is a float sum whose grouping
		// differs across layouts (last-ulp effects), so it is pinned with a
		// tolerance in TestGrid2DHarmonicAndDiameter instead of byte-exactly.
	}
	for _, tg := range []testGraph{gs[4], gs[6]} { // rmat, multi
		runGrid2DConfigs(t, tg, func(ctx *core.Ctx, g1, g2 *core.Graph) error {
			for _, job := range jobs {
				r1, err := Run(ctx, g1, job)
				if err != nil {
					return fmt.Errorf("1d %s: %w", job.Analytic, err)
				}
				r2, err := Run(ctx, g2, job)
				if err != nil {
					return fmt.Errorf("2d %s: %w", job.Analytic, err)
				}
				if !bytes.Equal(r1.Canonical(), r2.Canonical()) {
					return fmt.Errorf("%s canonical bytes diverge:\n  1d: %s\n  2d: %s",
						job.Analytic, r1.Canonical(), r2.Canonical())
				}
			}
			return nil
		})
	}
}

// TestGrid2DRejectsUnsupportedAnalytics pins the fail-fast contract: every
// analytic without a 2D kernel returns a clear error naming the layout
// instead of touching the (absent) per-rank adjacency.
func TestGrid2DRejectsUnsupportedAnalytics(t *testing.T) {
	tg := makeTestGraphs(t)[4] // rmat
	err := comm.RunLocal(2, func(c *comm.Comm) error {
		ctx := core.NewCtx(c, 1)
		src := core.ListSource{Edges: tg.edges}
		g, _, err := core.Build(ctx, src, partition.NewGrid(tg.n, 2))
		if err != nil {
			return err
		}
		calls := map[string]func() error{
			"SSSP":      func() error { _, err := SSSP(ctx, g, 0, UnitWeights); return err },
			"SSSPDelta": func() error { _, err := SSSPDelta(ctx, g, 0, UnitWeights, 4); return err },
			"PageRank":  func() error { _, err := PageRank(ctx, g, DefaultPageRank()); return err },
			"PageRankWeighted": func() error {
				_, err := PageRankWeighted(ctx, g, DefaultPageRank(), UnitWeights)
				return err
			},
			"LabelProp":   func() error { _, err := LabelProp(ctx, g, LabelPropOptions{Iterations: 3}); return err },
			"KCoreApprox": func() error { _, err := KCoreApprox(ctx, g, 3); return err },
			"KCoreExact":  func() error { _, err := KCoreExact(ctx, g); return err },
			"SCC":         func() error { _, err := SCC(ctx, g); return err },
			"LargestSCC":  func() error { _, err := LargestSCC(ctx, g); return err },
			"ClusteringCoefficient": func() error {
				_, _, err := ClusteringCoefficient(ctx, g, 10, 1)
				return err
			},
			"BuildHalo": func() error { _, err := BuildHalo(ctx, g, DirsBoth); return err },
		}
		for name, call := range calls {
			err := call()
			if err == nil {
				return fmt.Errorf("%s accepted a 2d shard", name)
			}
			if !strings.Contains(err.Error(), "2d checkerboard") {
				return fmt.Errorf("%s error does not name the layout: %v", name, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGrid2DHarmonicAndDiameter checks the analytics that are 2D-capable by
// composition (they consume only BFS results and scalar reductions).
func TestGrid2DHarmonicAndDiameter(t *testing.T) {
	tg := makeTestGraphs(t)[4] // rmat
	runGrid2DConfigs(t, tg, func(ctx *core.Ctx, g1, g2 *core.Graph) error {
		for _, v := range []uint32{0, tg.n / 3} {
			want := seq.Harmonic(tg.ref, v)
			got, err := Harmonic(ctx, g2, v)
			if err != nil {
				return err
			}
			if math.Abs(got-want) > 1e-9 {
				return fmt.Errorf("2d HC(%d) = %v, want %v", v, got, want)
			}
		}
		d1, err := ApproxDiameter(ctx, g1, 2)
		if err != nil {
			return err
		}
		d2, err := ApproxDiameter(ctx, g2, 2)
		if err != nil {
			return err
		}
		if d1 != d2 {
			return fmt.Errorf("2d diameter %d, 1d %d", d2, d1)
		}
		return nil
	})
}

// TestGrid2DTCPEquivalence reruns the canonical-bytes pin over a real TCP
// mesh: the 2D exchange's wire framing must survive the byte transport,
// not just the in-process channel loopback.
func TestGrid2DTCPEquivalence(t *testing.T) {
	tg := makeTestGraphs(t)[4] // rmat
	jobs := []*Job{
		{Analytic: JobBFS, Sources: []uint32{0}, Dir: "und"},
		{Analytic: JobBFS, Sources: []uint32{0, 1, 2}, Dir: "out"},
		{Analytic: JobWCC},
	}
	errs, _ := runScheduledTCPRanks(t, 4, comm.FaultSchedule{}, func(ctx *core.Ctx) error {
		g1, g2, err := build1Dand2D(ctx, tg)
		if err != nil {
			return err
		}
		for _, job := range jobs {
			r1, err := Run(ctx, g1, job)
			if err != nil {
				return fmt.Errorf("1d %s: %w", job.Analytic, err)
			}
			r2, err := Run(ctx, g2, job)
			if err != nil {
				return fmt.Errorf("2d %s: %w", job.Analytic, err)
			}
			if !bytes.Equal(r1.Canonical(), r2.Canonical()) {
				return fmt.Errorf("tcp %s canonical bytes diverge: 1d %s vs 2d %s",
					job.Analytic, r1.Canonical(), r2.Canonical())
			}
		}
		return nil
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}
