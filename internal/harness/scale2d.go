package harness

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/partition"
)

// Scale2D benchmarks the 2D checkerboard partitioning against the 1D
// edge-block baseline: the communication-avoiding claim is that routing
// edge blocks to an r×c process grid bounds each rank's frontier exchange
// to its √p-sized row and column instead of all p peers, so the busiest
// rank's wire volume must not exceed the 1D layout's. BFS and WCC run under
// both layouts on the RMAT (WC-sim) graph; per-rank and summed wire volume
// go into the table, and answers are cross-checked byte-identical between
// layouts.

// Scale2DEntry is one (layout, analytic) measurement.
type Scale2DEntry struct {
	Layout   string // "1d-mp" or "2d"
	Grid     string // "8x1"-style; the 1D layout is p×1
	Analytic string
	Ranks    int
	WallSecs float64
	// SentMiB is the off-rank wire volume summed over all ranks; MaxRankMiB
	// is the busiest rank's share — the communication-avoiding pin compares
	// the latter across layouts.
	SentMiB    float64
	MaxRankMiB float64
	// Canonical is the job result's canonical byte encoding, compared
	// across layouts.
	Canonical string
}

// scale2DJobs are the 2D-capable analytics under comparison, as job
// descriptors so the canonical result encoding is measured alongside wire
// volume.
var scale2DJobs = []struct {
	name string
	job  analytics.Job
}{
	{"bfs", analytics.Job{Analytic: analytics.JobBFS, Sources: []uint32{0}, Dir: "und"}},
	{"wcc", analytics.Job{Analytic: analytics.JobWCC}},
}

// scale2DSetMetrics attaches counters for one measured region. A 2D shard's
// sub-communicators share the parent's sinks but snapshot them at attach
// time, so the group must be rewired as a unit.
func scale2DSetMetrics(ctx *core.Ctx, g *core.Graph, m *obs.Metrics) {
	if g.Is2D() {
		g.Grid.Group.SetMetrics(m)
	} else {
		ctx.Comm.SetMetrics(m)
	}
}

// Scale2DRaw runs every scale2D job on p ranks under one layout and returns
// the per-job measurements.
func Scale2DRaw(cfg Config, p int, layout string, kind partition.Kind) ([]Scale2DEntry, error) {
	spec := cfg.wcSim()
	nJobs := len(scale2DJobs)
	type rankMeas struct {
		wall []time.Duration
		sent []uint64
	}
	meas := make([]rankMeas, p)
	canon := make([]string, nJobs)
	var mu sync.Mutex
	err := cfg.buildForAnalytics(p, core.SpecSource{Spec: spec}, spec.NumVertices, kind,
		func(ctx *core.Ctx, g *core.Graph) error {
			rm := rankMeas{wall: make([]time.Duration, nJobs), sent: make([]uint64, nJobs)}
			for i := range scale2DJobs {
				job := scale2DJobs[i].job
				if err := ctx.Comm.Barrier(); err != nil {
					return err
				}
				m := obs.NewMetrics()
				scale2DSetMetrics(ctx, g, m)
				start := time.Now()
				res, err := analytics.Run(ctx, g, &job)
				if err != nil {
					return err
				}
				if err := ctx.Comm.Barrier(); err != nil {
					return err
				}
				rm.wall[i] = time.Since(start)
				rm.sent[i] = m.Total().WireBytesOut
				scale2DSetMetrics(ctx, g, nil)
				if ctx.Rank() == 0 {
					mu.Lock()
					canon[i] = string(res.Canonical())
					mu.Unlock()
				}
			}
			mu.Lock()
			meas[ctx.Rank()] = rm
			mu.Unlock()
			return nil
		})
	if err != nil {
		return nil, err
	}
	grid := fmt.Sprintf("%dx1", p)
	if kind == partition.Grid2D {
		r, c := partition.GridDims(p)
		grid = fmt.Sprintf("%dx%d", r, c)
	}
	entries := make([]Scale2DEntry, 0, nJobs)
	for i := range scale2DJobs {
		e := Scale2DEntry{Layout: layout, Grid: grid, Analytic: scale2DJobs[i].name,
			Ranks: p, Canonical: canon[i]}
		var wall time.Duration
		var sent, maxRank uint64
		for r := 0; r < p; r++ {
			if meas[r].wall[i] > wall {
				wall = meas[r].wall[i]
			}
			sent += meas[r].sent[i]
			if meas[r].sent[i] > maxRank {
				maxRank = meas[r].sent[i]
			}
		}
		e.WallSecs = wall.Seconds()
		e.SentMiB = float64(sent) / (1 << 20)
		e.MaxRankMiB = float64(maxRank) / (1 << 20)
		entries = append(entries, e)
	}
	return entries, nil
}

// scale2DLayouts are the layouts under comparison: the best 1D baseline
// (edge-block, the paper's mp) and the 2D checkerboard.
var scale2DLayouts = []struct {
	name string
	kind partition.Kind
}{
	{"1d-mp", partition.EdgeBlock},
	{"2d", partition.Grid2D},
}

// Scale2D is the registry entry point: the layout comparison table and the
// cross-layout answer equality check.
func Scale2D(cfg Config) (*Report, error) {
	p := cfg.maxRanks()
	if p < 8 {
		p = 8 // row/column factorizations below 4x2 degenerate to near-1D
	}
	r := &Report{
		ID:     "Scale2D",
		Title:  fmt.Sprintf("2d checkerboard vs 1d edge-block frontier traffic (%d ranks)", p),
		Header: []string{"Layout", "Grid", "Analytic", "Time (s)", "Sent MiB", "Max rank MiB"},
	}
	byAnalytic := make(map[string]map[string]Scale2DEntry)
	for _, l := range scale2DLayouts {
		entries, err := Scale2DRaw(cfg, p, l.name, l.kind)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if byAnalytic[e.Analytic] == nil {
				byAnalytic[e.Analytic] = make(map[string]Scale2DEntry)
			}
			byAnalytic[e.Analytic][e.Layout] = e
			r.Rows = append(r.Rows, []string{
				e.Layout, e.Grid, e.Analytic,
				fmt.Sprintf("%.3f", e.WallSecs),
				fmt.Sprintf("%.2f", e.SentMiB),
				fmt.Sprintf("%.3f", e.MaxRankMiB),
			})
		}
	}
	for a, m := range byAnalytic {
		if m["1d-mp"].Canonical != m["2d"].Canonical {
			return nil, fmt.Errorf("harness: %s answers diverge across layouts: 1d %s vs 2d %s",
				a, m["1d-mp"].Canonical, m["2d"].Canonical)
		}
	}
	r.Notes = append(r.Notes,
		"the busiest rank's wire volume under 2d must not exceed the 1d edge-block baseline for either analytic (CI-pinned): column expands and row folds touch √p-sized sub-groups instead of all p peers",
		"answers are byte-identical across layouts (checked here per run and pinned by the analytics 1d-vs-2d equivalence battery)")
	return r, nil
}
