// Package repro is the public API of the distributed graph analytics
// library: a Go reproduction of Slota, Rajamanickam, and Madduri, "A Case
// Study of Complex Graph Analysis in Distributed Memory: Implementation and
// Optimization" (IPDPS 2016).
//
// The library runs the paper's methodology — parallel edge ingestion,
// one-dimensional partitioning, a compact distributed CSR with ghost
// relabeling, and six analytics (PageRank, Label Propagation, WCC, SCC,
// Harmonic Centrality, approximate k-core) — over a message-passing runtime
// whose ranks are goroutines in this process (or OS processes over TCP; see
// the comm package and cmd/tcprank).
//
// Quick start:
//
//	cluster := repro.NewCluster(4, 2) // 4 ranks, 2 threads each
//	defer cluster.Close()
//	g, err := cluster.Generate(repro.RMAT(1<<16, 1<<20, 1), repro.PartRandom)
//	pr, err := g.PageRank(repro.PageRankOptions{Iterations: 10, Damping: 0.85})
//
// Results come back as global arrays indexed by vertex id, gathered from
// the owning ranks — convenient at the scales a single process hosts. The
// internal packages expose the unfactored SPMD machinery for callers that
// need rank-level control (the experiment harness uses them directly).
package repro

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/analytics"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/gen"
	"repro/internal/gio"
	"repro/internal/partition"
)

// PartitionKind selects the paper's one-dimensional partitioning strategy
// (§III-B).
type PartitionKind = partition.Kind

// Partitioning strategies.
const (
	// PartVertexBlock assigns each rank ~n/p consecutive vertices
	// (the paper's WC-np configuration).
	PartVertexBlock = partition.VertexBlock
	// PartEdgeBlock assigns consecutive vertex ranges carrying ~m/p edges
	// each (WC-mp).
	PartEdgeBlock = partition.EdgeBlock
	// PartRandom hashes vertices to ranks (WC-rand).
	PartRandom = partition.Random
)

// Cluster is a group of in-process ranks executing analytics SPMD-style.
// Create with NewCluster; a Cluster may host any number of graphs.
type Cluster struct {
	mu    sync.Mutex
	comms []*comm.Comm
	ctxs  []*core.Ctx
}

// NewCluster creates a cluster with the given number of ranks, each running
// threadsPerRank worker threads for its intra-rank loops (<= 0 selects
// NumCPU). The paper's MPI tasks map to ranks and its OpenMP threads to the
// per-rank workers.
func NewCluster(ranks, threadsPerRank int) *Cluster {
	if ranks <= 0 {
		ranks = 1
	}
	trs := comm.NewLocalGroup(ranks)
	c := &Cluster{}
	for _, tr := range trs {
		cm := comm.New(tr)
		c.comms = append(c.comms, cm)
		c.ctxs = append(c.ctxs, core.NewCtx(cm, threadsPerRank))
	}
	return c
}

// Ranks returns the number of ranks.
func (c *Cluster) Ranks() int { return len(c.comms) }

// Checkpoint and CheckpointConfig re-export iteration-granular
// checkpoint/restart for PageRank and weighted PageRank (see
// PageRankOptions.Checkpoint, and the analytics package's
// WriteCheckpointFile/ReadCheckpointFile for a file-backed Sink).
type (
	Checkpoint       = analytics.Checkpoint
	CheckpointConfig = analytics.CheckpointConfig
)

// Close releases the cluster. Using the cluster or its graphs afterwards is
// an error.
func (c *Cluster) Close() error {
	for _, cm := range c.comms {
		if err := cm.Close(); err != nil {
			return err
		}
	}
	return nil
}

// Each runs fn on every rank concurrently and waits for all to finish,
// joining errors — the SPMD escape hatch for custom rank-level code.
func (c *Cluster) Each(fn func(ctx *core.Ctx) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.each(fn)
}

func (c *Cluster) each(fn func(ctx *core.Ctx) error) error {
	ctxs := c.ctxs
	return comm.RunOn(c.comms, func(cm *comm.Comm) error {
		return fn(ctxs[cm.Rank()])
	})
}

// GraphSpec describes a synthetic graph for Generate.
type GraphSpec = gen.Spec

// RMAT returns a spec for an R-MAT graph (Graph500 parameters) with n
// vertices, m directed edges, and the given seed.
func RMAT(n uint32, m uint64, seed uint64) GraphSpec {
	return gen.Spec{Kind: gen.RMAT, NumVertices: n, NumEdges: m, Seed: seed}
}

// RandER returns a spec for a uniform Erdős–Rényi graph.
func RandER(n uint32, m uint64, seed uint64) GraphSpec {
	return gen.Spec{Kind: gen.ER, NumVertices: n, NumEdges: m, Seed: seed}
}

// Graph is a distributed graph resident on a Cluster.
type Graph struct {
	cluster *Cluster
	shards  []*core.Graph
	// Build reports the construction-stage timings of the slowest rank
	// (the paper's Table III columns).
	Build core.Timings
}

// build constructs the distributed graph from src under the chosen
// partitioning.
func (c *Cluster) build(src core.EdgeSource, n uint32, part PartitionKind, seed uint64) (*Graph, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := &Graph{cluster: c, shards: make([]*core.Graph, c.Ranks())}
	var mu sync.Mutex
	err := c.each(func(ctx *core.Ctx) error {
		pt, err := core.MakePartitioner(ctx, src, part, n, seed)
		if err != nil {
			return err
		}
		shard, tm, err := core.Build(ctx, src, pt)
		if err != nil {
			return err
		}
		mu.Lock()
		g.shards[ctx.Rank()] = shard
		if tm.Read > g.Build.Read {
			g.Build.Read = tm.Read
		}
		if tm.Exchange > g.Build.Exchange {
			g.Build.Exchange = tm.Exchange
		}
		if tm.Convert > g.Build.Convert {
			g.Build.Convert = tm.Convert
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// Generate builds a synthetic distributed graph: each rank generates its
// chunk of the edge list, exactly as it would read a chunk of a file.
func (c *Cluster) Generate(spec GraphSpec, part PartitionKind) (*Graph, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return c.build(core.SpecSource{Spec: spec}, spec.NumVertices, part, spec.Seed^0x9e37)
}

// LoadFile builds a distributed graph from a binary edge file (pairs of
// little-endian uint32s, the paper's input format). The vertex count is
// discovered by a distributed scan.
func (c *Cluster) LoadFile(path string, part PartitionKind) (*Graph, error) {
	r, err := gio.Open(path)
	if err != nil {
		return nil, err
	}
	// The reader is kept open for the build and closed after; gio.Reader
	// supports concurrent positioned reads from all ranks.
	defer r.Close()
	var n uint32
	c.mu.Lock()
	err = c.each(func(ctx *core.Ctx) error {
		nn, err := core.ScanNumVertices(ctx, r)
		if err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			n = nn
		}
		return nil
	})
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return c.build(r, n, part, 0x517e)
}

// FromEdges builds a distributed graph from an in-memory edge list given as
// flat (src, dst) pairs; n is the vertex count (ids must be below n).
func (c *Cluster) FromEdges(n uint32, pairs []uint32) (*Graph, error) {
	if len(pairs)%2 != 0 {
		return nil, fmt.Errorf("repro: odd number of edge words")
	}
	return c.build(core.ListSource{Edges: edge.List(pairs)}, n, PartVertexBlock, 0)
}

// Save writes the distributed graph to dir as one shard file per rank
// (shard-0000.bin, ...), skipping reconstruction on later runs.
func (g *Graph) Save(dir string) error {
	return g.each(func(ctx *core.Ctx, shard *core.Graph) error {
		f, err := os.Create(shardPath(dir, ctx.Rank()))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := core.SaveShard(f, shard); err != nil {
			return err
		}
		return f.Close()
	})
}

// LoadGraph reads a shard set saved by Graph.Save. The cluster's rank
// count must match the saved set's.
func (c *Cluster) LoadGraph(dir string) (*Graph, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := &Graph{cluster: c, shards: make([]*core.Graph, c.Ranks())}
	var mu sync.Mutex
	err := c.each(func(ctx *core.Ctx) error {
		f, err := os.Open(shardPath(dir, ctx.Rank()))
		if err != nil {
			return err
		}
		defer f.Close()
		shard, err := core.LoadShard(f)
		if err != nil {
			return err
		}
		if shard.Rank() != ctx.Rank() {
			return fmt.Errorf("repro: shard file for rank %d loaded on rank %d", shard.Rank(), ctx.Rank())
		}
		if shard.Part.NumRanks() != c.Ranks() {
			return fmt.Errorf("repro: shard set was saved with %d ranks, cluster has %d", shard.Part.NumRanks(), c.Ranks())
		}
		mu.Lock()
		g.shards[ctx.Rank()] = shard
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

func shardPath(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.bin", rank))
}

// NumVertices returns the global vertex count.
func (g *Graph) NumVertices() uint32 { return g.shards[0].NGlobal }

// NumEdges returns the global directed edge count.
func (g *Graph) NumEdges() uint64 { return g.shards[0].MGlobal }

// each runs fn on every rank with its shard.
func (g *Graph) each(fn func(ctx *core.Ctx, shard *core.Graph) error) error {
	g.cluster.mu.Lock()
	defer g.cluster.mu.Unlock()
	return g.cluster.each(func(ctx *core.Ctx) error {
		return fn(ctx, g.shards[ctx.Rank()])
	})
}

// gatherResult is the generic pattern: run an analytic per rank, gather its
// owned output to a global array, keep rank 0's copy.
func gatherResult[T comm.Scalar](g *Graph, run func(ctx *core.Ctx, shard *core.Graph) ([]T, error)) ([]T, error) {
	var out []T
	var mu sync.Mutex
	err := g.each(func(ctx *core.Ctx, shard *core.Graph) error {
		owned, err := run(ctx, shard)
		if err != nil {
			return err
		}
		global, err := core.Gather(ctx, shard, owned)
		if err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			mu.Lock()
			out = global
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PageRankOptions re-exports the analytics configuration.
type PageRankOptions = analytics.PageRankOptions

// PageRank returns the global PageRank vector.
func (g *Graph) PageRank(opts PageRankOptions) ([]float64, error) {
	return gatherResult(g, func(ctx *core.Ctx, shard *core.Graph) ([]float64, error) {
		res, err := analytics.PageRank(ctx, shard, opts)
		if err != nil {
			return nil, err
		}
		return res.Scores, nil
	})
}

// LabelPropagation runs the community detection analytic for the given
// number of rounds and returns global labels.
func (g *Graph) LabelPropagation(iterations int) ([]uint32, error) {
	return gatherResult(g, func(ctx *core.Ctx, shard *core.Graph) ([]uint32, error) {
		res, err := analytics.LabelProp(ctx, shard, analytics.LabelPropOptions{Iterations: iterations})
		if err != nil {
			return nil, err
		}
		return res.Labels, nil
	})
}

// BFSDir re-exports traversal directions.
type BFSDir = analytics.Dir

// Traversal directions for BFS.
const (
	BFSForward  = analytics.Forward
	BFSBackward = analytics.Backward
	BFSUnd      = analytics.Und
)

// BFS returns global levels from root (-1 where unreachable).
func (g *Graph) BFS(root uint32, dir BFSDir) ([]int32, error) {
	return gatherResult(g, func(ctx *core.Ctx, shard *core.Graph) ([]int32, error) {
		res, err := analytics.BFS(ctx, shard, root, dir)
		if err != nil {
			return nil, err
		}
		return res.Levels, nil
	})
}

// ComponentInfo summarizes a connectivity analytic.
type ComponentInfo struct {
	// Labels[v] identifies v's component; equal labels mean same
	// component.
	Labels []uint32
	// NumComponents is the component count.
	NumComponents uint64
	// LargestLabel / LargestSize identify the largest component.
	LargestLabel uint32
	LargestSize  uint64
}

// WCC computes weakly connected components with the Multistep scheme.
func (g *Graph) WCC() (*ComponentInfo, error) {
	info := &ComponentInfo{}
	var mu sync.Mutex
	labels, err := gatherResult(g, func(ctx *core.Ctx, shard *core.Graph) ([]uint32, error) {
		res, err := analytics.WCC(ctx, shard)
		if err != nil {
			return nil, err
		}
		if ctx.Rank() == 0 {
			mu.Lock()
			info.NumComponents = res.NumComponents
			info.LargestLabel = res.LargestLabel
			info.LargestSize = res.LargestSize
			mu.Unlock()
		}
		return res.Labels, nil
	})
	if err != nil {
		return nil, err
	}
	info.Labels = labels
	return info, nil
}

// SCC computes the full strongly-connected-component decomposition
// (trim + Forward-Backward + coloring).
func (g *Graph) SCC() (*ComponentInfo, error) {
	info := &ComponentInfo{}
	var mu sync.Mutex
	labels, err := gatherResult(g, func(ctx *core.Ctx, shard *core.Graph) ([]uint32, error) {
		res, err := analytics.SCC(ctx, shard)
		if err != nil {
			return nil, err
		}
		if ctx.Rank() == 0 {
			mu.Lock()
			info.NumComponents = res.NumComponents
			info.LargestLabel = res.LargestLabel
			info.LargestSize = res.LargestSize
			mu.Unlock()
		}
		return res.Labels, nil
	})
	if err != nil {
		return nil, err
	}
	info.Labels = labels
	return info, nil
}

// LargestSCC runs the paper's SCC analytic (trim plus one Forward-Backward
// sweep) and returns global membership of the pivot's component plus its
// size.
func (g *Graph) LargestSCC() (members []bool, size uint64, err error) {
	var sz uint64
	var mu sync.Mutex
	flags, err := gatherResult(g, func(ctx *core.Ctx, shard *core.Graph) ([]uint8, error) {
		res, err := analytics.LargestSCC(ctx, shard)
		if err != nil {
			return nil, err
		}
		if ctx.Rank() == 0 {
			mu.Lock()
			sz = res.Size
			mu.Unlock()
		}
		out := make([]uint8, shard.NLoc)
		for v, in := range res.InLargest {
			if in {
				out[v] = 1
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, 0, err
	}
	members = make([]bool, len(flags))
	for v, f := range flags {
		members[v] = f == 1
	}
	return members, sz, nil
}

// Harmonic returns the harmonic centrality of global vertex v.
func (g *Graph) Harmonic(v uint32) (float64, error) {
	var score float64
	var mu sync.Mutex
	err := g.each(func(ctx *core.Ctx, shard *core.Graph) error {
		s, err := analytics.Harmonic(ctx, shard, v)
		if err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			mu.Lock()
			score = s
			mu.Unlock()
		}
		return nil
	})
	return score, err
}

// VertexScore re-exports the (vertex, score) pair.
type VertexScore = analytics.VertexScore

// HarmonicTopK returns harmonic centrality for the k highest-degree
// vertices, as the paper computes for the top 1000.
func (g *Graph) HarmonicTopK(k int) ([]VertexScore, error) {
	var out []VertexScore
	var mu sync.Mutex
	err := g.each(func(ctx *core.Ctx, shard *core.Graph) error {
		scores, err := analytics.HarmonicTopK(ctx, shard, k)
		if err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			mu.Lock()
			out = scores
			mu.Unlock()
		}
		return nil
	})
	return out, err
}

// KCore runs the approximate k-core analytic with thresholds 2^1..2^levels
// and returns global coreness upper bounds.
func (g *Graph) KCore(levels int) ([]uint32, error) {
	return gatherResult(g, func(ctx *core.Ctx, shard *core.Graph) ([]uint32, error) {
		res, err := analytics.KCoreApprox(ctx, shard, levels)
		if err != nil {
			return nil, err
		}
		return res.CorenessUB, nil
	})
}

// KCoreExact runs the exact level-by-level k-core peel and returns global
// coreness values (not upper bounds — see KCore for the paper's
// approximation).
func (g *Graph) KCoreExact() ([]uint32, error) {
	return gatherResult(g, func(ctx *core.Ctx, shard *core.Graph) ([]uint32, error) {
		res, err := analytics.KCoreExact(ctx, shard)
		if err != nil {
			return nil, err
		}
		return res.Coreness, nil
	})
}

// PageRankWeighted returns the global PageRank vector with edge mass
// distributed proportionally to w instead of uniformly (nil selects unit
// weights, which reproduces PageRank bit-for-bit).
func (g *Graph) PageRankWeighted(opts PageRankOptions, w WeightFunc) ([]float64, error) {
	if w == nil {
		w = analytics.UnitWeights
	}
	return gatherResult(g, func(ctx *core.Ctx, shard *core.Graph) ([]float64, error) {
		res, err := analytics.PageRankWeighted(ctx, shard, opts, w)
		if err != nil {
			return nil, err
		}
		return res.Scores, nil
	})
}

// SSSPInf marks unreachable vertices in SSSP results.
const SSSPInf = analytics.InfDistance

// WeightFunc re-exports the synthetic edge-weight function type. The
// weights are caller code and are not checked: the sum of a vertex's
// out-edge weights (PageRankWeighted) and the length of every shortest path
// (SSSP) must fit in 64 bits, or the answers are wrong.
type WeightFunc = analytics.WeightFunc

// HashWeights returns deterministic pseudo-random integer edge weights in
// [1, maxW] — the substitute for a weighted input format.
func HashWeights(seed, maxW uint64) WeightFunc { return analytics.HashWeights(seed, maxW) }

// SSSP computes single-source shortest paths from root along directed
// edges under w (nil selects unit weights), returning global distances
// (SSSPInf where unreachable).
func (g *Graph) SSSP(root uint32, w WeightFunc) ([]uint64, error) {
	if w == nil {
		w = analytics.UnitWeights
	}
	return gatherResult(g, func(ctx *core.Ctx, shard *core.Graph) ([]uint64, error) {
		res, err := analytics.SSSP(ctx, shard, root, w)
		if err != nil {
			return nil, err
		}
		return res.Dist, nil
	})
}

// SSSPDelta is SSSP with an explicit Δ-stepping bucket width (0 picks
// ⌈4·mean weight / mean out-degree⌉, exactly what SSSP does). Distances are
// identical for every delta; only the schedule changes.
func (g *Graph) SSSPDelta(root uint32, w WeightFunc, delta uint64) ([]uint64, error) {
	if w == nil {
		w = analytics.UnitWeights
	}
	return gatherResult(g, func(ctx *core.Ctx, shard *core.Graph) ([]uint64, error) {
		res, err := analytics.SSSPDelta(ctx, shard, root, w, delta)
		if err != nil {
			return nil, err
		}
		return res.Dist, nil
	})
}

// ApproxDiameter estimates the undirected diameter with the iterative
// double-sweep heuristic (a lower bound, typically tight on small-world
// graphs).
func (g *Graph) ApproxDiameter(rounds int) (int, error) {
	var out int
	var mu sync.Mutex
	err := g.each(func(ctx *core.Ctx, shard *core.Graph) error {
		d, err := analytics.ApproxDiameter(ctx, shard, rounds)
		if err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			mu.Lock()
			out = d
			mu.Unlock()
		}
		return nil
	})
	return out, err
}

// ClusteringCoefficient estimates the global clustering coefficient by
// sampling samplesPerRank wedges on each rank and checking closure through
// a distributed edge oracle.
func (g *Graph) ClusteringCoefficient(samplesPerRank int, seed uint64) (float64, error) {
	var out float64
	var mu sync.Mutex
	err := g.each(func(ctx *core.Ctx, shard *core.Graph) error {
		cc, _, err := analytics.ClusteringCoefficient(ctx, shard, samplesPerRank, seed)
		if err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			mu.Lock()
			out = cc
			mu.Unlock()
		}
		return nil
	})
	return out, err
}

// CommunityStat re-exports the Table V community summary.
type CommunityStat = analytics.CommunityStat

// TopCommunities runs Label Propagation for the given rounds and returns
// the k largest communities with their vertex and edge statistics.
func (g *Graph) TopCommunities(iterations, k int) ([]CommunityStat, error) {
	var out []CommunityStat
	var mu sync.Mutex
	err := g.each(func(ctx *core.Ctx, shard *core.Graph) error {
		res, err := analytics.LabelProp(ctx, shard, analytics.LabelPropOptions{Iterations: iterations})
		if err != nil {
			return err
		}
		stats, err := analytics.TopCommunities(ctx, shard, res.Labels, k)
		if err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			mu.Lock()
			out = stats
			mu.Unlock()
		}
		return nil
	})
	return out, err
}
