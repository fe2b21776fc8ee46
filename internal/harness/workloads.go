package harness

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/gio"
	"repro/internal/partition"
)

// wcSim returns the Web Crawl stand-in: an R-MAT graph with the crawl's
// average degree (36) and heavy skew, scaled down from 3.56 B vertices.
func (cfg Config) wcSim() gen.Spec {
	n := uint32(cfg.scaled(1<<16, 1<<10))
	return gen.Spec{Kind: gen.RMAT, NumVertices: n, NumEdges: uint64(n) * 36, Seed: cfg.Seed}
}

// rmatSim and erSim are the paper's same-size synthetic companions.
func (cfg Config) rmatSim() gen.Spec {
	s := cfg.wcSim()
	s.Seed = cfg.Seed ^ 0x1111
	return s
}

func (cfg Config) erSim() gen.Spec {
	s := cfg.wcSim()
	s.Kind = gen.ER
	s.Seed = cfg.Seed ^ 0x2222
	return s
}

// standIn mirrors a real-world dataset of the paper at 1/div scale.
type standIn struct {
	name string
	spec gen.Spec
	// paper's full-size n, m for the inventory table.
	paperN, paperM uint64
	davg           float64
}

// standIns returns the comparison graphs of §V at reduced scale: the same
// n/m ratios as Host, Pay, Twitter, LiveJournal, and Google, generated as
// R-MAT to preserve degree skew.
func (cfg Config) standIns() []standIn {
	mk := func(name string, n, m uint64, div uint64, kind gen.Kind, seed uint64) standIn {
		sn := uint32(cfg.scaled(n/div, 256))
		sm := cfg.scaled(m/div, 1024)
		return standIn{
			name:   name,
			spec:   gen.Spec{Kind: kind, NumVertices: sn, NumEdges: sm, Seed: cfg.Seed ^ seed},
			paperN: n, paperM: m, davg: float64(m) / float64(n),
		}
	}
	return []standIn{
		mk("Google", 875_000, 5_100_000, 16, gen.RMAT, 0xa1),
		mk("LiveJournal", 4_800_000, 69_000_000, 128, gen.RMAT, 0xa2),
		mk("Twitter", 53_000_000, 2_000_000_000, 4096, gen.RMAT, 0xa3),
		mk("Pay", 39_000_000, 623_000_000, 2048, gen.RMAT, 0xa4),
		mk("Host", 89_000_000, 2_000_000_000, 4096, gen.RMAT, 0xa5),
	}
}

// plantedSim is the community-structured crawl stand-in for Table V and
// Figure 5.
func (cfg Config) plantedSim() gen.PlantedSpec {
	n := uint32(cfg.scaled(1<<16, 1<<10))
	k := int(n / 64)
	if k < 8 {
		k = 8
	}
	return gen.PlantedSpec{
		NumVertices:    n,
		NumEdges:       uint64(n) * 16,
		NumCommunities: k,
		// Loose enough that Label Propagation keeps refining between
		// iteration 10 and 30, as the paper's Table V shows on the crawl.
		IntraProb: 0.7,
		Seed:      cfg.Seed ^ 0x5555,
	}
}

// buildGraph constructs the distributed graph SPMD-style and hands each
// rank's shard to body. Timings are maxed over ranks into tm. An n of 0
// scans the source for the vertex count (g.NGlobal carries it to body).
// When cfg.Trace is non-nil every rank records its collective and analytic
// spans into the set's per-rank tracers.
func (cfg Config) buildGraph(p int, src core.EdgeSource, n uint32, kind partition.Kind,
	body func(ctx *core.Ctx, g *core.Graph) error) (core.Timings, error) {
	var tm core.Timings
	cfg.Trace.Ensure(p)
	err := comm.RunLocal(p, func(c *comm.Comm) error {
		c.SetTracer(cfg.Trace.Rank(c.Rank()))
		ctx := core.NewCtx(c, cfg.Threads)
		ctx.Traverse = cfg.Traverse
		n := n
		if n == 0 {
			var err error
			if n, err = core.ScanNumVertices(ctx, src); err != nil {
				return err
			}
		}
		pt, err := core.MakePartitioner(ctx, src, kind, n, cfg.Seed)
		if err != nil {
			return err
		}
		g, t, err := core.Build(ctx, src, pt)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			tm = t // barrier-aligned stages: any rank's view spans the same walls
		}
		if body != nil {
			return body(ctx, g)
		}
		return nil
	})
	return tm, err
}

// writeEdgeFile materializes a spec to a binary edge file for the
// I/O-inclusive experiments and returns its path plus a cleanup func.
func (cfg Config) writeEdgeFile(spec gen.Spec) (string, func(), error) {
	dir := cfg.TmpDir
	if dir == "" {
		dir = os.TempDir()
	}
	path := filepath.Join(dir, fmt.Sprintf("wcsim-%d-%d.bin", spec.NumVertices, spec.NumEdges))
	edges, err := spec.GenerateAll()
	if err != nil {
		return "", nil, err
	}
	if err := gio.WriteFile(path, edges); err != nil {
		return "", nil, err
	}
	return path, func() { os.Remove(path) }, nil
}
