package analytics

import (
	"fmt"
	"sort"

	"repro/internal/comm"
	"repro/internal/core"
)

// Harmonic computes the harmonic centrality of global vertex v (Boldi &
// Vigna's axiomatically sound centrality, the paper's HC analytic):
// the sum of 1/d(u, v) over all u with a directed path to v. One reverse
// BFS from v yields every distance; the per-rank partial sums combine with
// an Allreduce. The paper reports the single-vertex time because all-vertex
// HC is linear in m per vertex.
func Harmonic(ctx *core.Ctx, g *core.Graph, v uint32) (float64, error) {
	r, err := bfsRunnerFor(ctx, g)
	if err != nil {
		return 0, err
	}
	return r.harmonic(ctx, v)
}

// harmonic is Harmonic on the runner; a multi-vertex job calls it once per
// vertex on one runner.
func (r *bfsRunner) harmonic(ctx *core.Ctx, v uint32) (float64, error) {
	g := r.g
	tr := ctx.Comm.Tracer()
	mark := tr.Now()
	bfs, err := r.run(ctx, v, Backward)
	if err != nil {
		return 0, err
	}
	local := ctx.Pool.SumRangeF64(int(g.NLoc), func(i int) float64 {
		if d := bfs.Levels[i]; d > 0 {
			return 1 / float64(d)
		}
		return 0
	})
	hc, err := comm.Allreduce(ctx.Comm, local, comm.OpSum)
	if err != nil {
		return 0, err
	}
	tr.Span(SpanHarmonicVertex, mark, int64(v))
	return hc, nil
}

// VertexScore pairs a global vertex id with a score.
type VertexScore struct {
	Vertex uint32
	Score  float64
}

// TopDegree returns the k globally highest-degree vertices (undirected
// degree, ties toward smaller ids) — the paper computes HC for the top
// 1000 vertices ranked by degree. Each rank contributes its local top k;
// candidates are gathered and re-ranked identically everywhere.
func TopDegree(ctx *core.Ctx, g *core.Graph, k int) ([]uint32, error) {
	if k <= 0 {
		return nil, fmt.Errorf("analytics: TopDegree with k=%d", k)
	}
	type cand struct {
		deg uint64
		gid uint32
	}
	local := make([]cand, 0, g.NLoc)
	for v := uint32(0); v < g.NLoc; v++ {
		local = append(local, cand{deg: g.OutDegree(v) + g.InDegree(v), gid: g.GlobalID(v)})
	}
	sort.Slice(local, func(i, j int) bool {
		if local[i].deg != local[j].deg {
			return local[i].deg > local[j].deg
		}
		return local[i].gid < local[j].gid
	})
	if len(local) > k {
		local = local[:k]
	}
	degs := make([]uint64, len(local))
	gids := make([]uint32, len(local))
	for i, c := range local {
		degs[i] = c.deg
		gids[i] = c.gid
	}
	allDegs, degCounts, err := comm.Allgatherv(ctx.Comm, degs)
	if err != nil {
		return nil, err
	}
	allGids, gidCounts, err := comm.Allgatherv(ctx.Comm, gids)
	if err != nil {
		return nil, err
	}
	for r := range degCounts {
		if degCounts[r] != gidCounts[r] {
			return nil, fmt.Errorf("analytics: TopDegree gather misaligned at rank %d", r)
		}
	}
	all := make([]cand, len(allDegs))
	for i := range all {
		all[i] = cand{deg: allDegs[i], gid: allGids[i]}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].deg != all[j].deg {
			return all[i].deg > all[j].deg
		}
		return all[i].gid < all[j].gid
	})
	if len(all) > k {
		all = all[:k]
	}
	out := make([]uint32, len(all))
	for i, c := range all {
		out[i] = c.gid
	}
	return out, nil
}

// HarmonicTopK computes harmonic centrality for the k highest-degree
// vertices, returning (vertex, score) pairs sorted by descending score on
// every rank.
func HarmonicTopK(ctx *core.Ctx, g *core.Graph, k int) ([]VertexScore, error) {
	tops, err := TopDegree(ctx, g, k)
	if err != nil {
		return nil, err
	}
	r, err := bfsRunnerFor(ctx, g)
	if err != nil {
		return nil, err
	}
	out := make([]VertexScore, 0, len(tops))
	for _, v := range tops {
		hc, err := r.harmonic(ctx, v)
		if err != nil {
			return nil, err
		}
		out = append(out, VertexScore{Vertex: v, Score: hc})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Vertex < out[j].Vertex
	})
	return out, nil
}
