package harness

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/partition"
)

// EndToEnd reproduces the paper's headline claim ("using just 256 compute
// nodes of Blue Waters, we are currently able to perform all six
// implemented analytics in about 20 minutes, and this includes graph I/O
// and preprocessing"): one run that reads the edge file, builds the
// distributed graph, and executes all six analytics back to back,
// reporting each stage and the total. With cfg.File set it reads that file
// instead of a generated WC-sim, scanning n from it, and leaves it in place.
func EndToEnd(cfg Config) (*Report, error) {
	path, n, input := cfg.File, uint32(0), filepath.Base(cfg.File)
	if path == "" {
		spec := cfg.wcSim()
		var cleanup func()
		var err error
		if path, cleanup, err = cfg.writeEdgeFile(spec); err != nil {
			return nil, err
		}
		defer cleanup()
		n, input = spec.NumVertices, "WC-sim"
	}
	p := cfg.maxRanks()

	type stage struct {
		name string
		d    time.Duration
	}
	var stages []stage
	var mu sync.Mutex
	record := func(name string, d time.Duration) {
		mu.Lock()
		stages = append(stages, stage{name, d})
		mu.Unlock()
	}

	start := time.Now()
	src, closeSrc, err := core.OpenSource(path, "")
	if err != nil {
		return nil, err
	}
	m := src.NumEdges()
	tm, err := cfg.buildGraph(p, src, n, cfg.pick(partition.VertexBlock),
		func(ctx *core.Ctx, g *core.Graph) error {
			if ctx.Rank() == 0 {
				n = g.NGlobal
			}
			return runAllAnalytics(ctx, g, record)
		})
	closeSrc()
	if err != nil {
		return nil, err
	}
	total := time.Since(start)

	r := &Report{
		ID: "End-to-end (§I headline)",
		Title: fmt.Sprintf("I/O + construction + all six analytics on %s (n=%s, m=%s), %d ranks",
			input, engi(uint64(n)), engi(m), p),
		Header: []string{"Stage", "Time (s)"},
	}
	r.Rows = append(r.Rows,
		[]string{"Read (file I/O)", secs(tm.Read)},
		[]string{"Edge exchanges", secs(tm.Exchange)},
		[]string{"CSR conversion", secs(tm.Convert)},
	)
	for _, s := range stages {
		r.Rows = append(r.Rows, []string{s.name, secs(s.d)})
	}
	r.Rows = append(r.Rows, []string{"TOTAL", secs(total)})
	r.Notes = append(r.Notes,
		"paper: ~20 minutes end-to-end on 256 nodes for the 3.56B-vertex crawl, I/O and preprocessing included",
		"the reproduced property is completeness at bounded cost: one pipeline, one graph residency, all six analytics")
	return r, nil
}
