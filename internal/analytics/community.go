package analytics

import (
	"sort"

	"repro/internal/comm"
	"repro/internal/core"
)

// CommunityStat summarizes one community from a Label Propagation run: the
// paper's Table V columns (vertex count n_in, intra-community edges m_in,
// cut edges m_cut).
type CommunityStat struct {
	Label uint32
	N     uint64
	MIn   uint64
	MCut  uint64
}

// TopCommunities computes per-community statistics from per-owned-vertex
// labels and returns the k largest communities by vertex count, identically
// on every rank. Each directed edge is examined once at its source's owner:
// intra-community edges count toward m_in of the shared community; cut
// edges count toward m_cut of both endpoint communities.
func TopCommunities(ctx *core.Ctx, g *core.Graph, labels []uint32, k int) ([]CommunityStat, error) {
	// Fresh ghost labels so edge classification sees both endpoints.
	state := make([]uint32, g.NTotal())
	copy(state, labels[:g.NLoc])
	halo, _, err := haloFor(ctx, g, DirsBoth)
	if err != nil {
		return nil, err
	}
	if err := Exchange(ctx, halo, state); err != nil {
		return nil, err
	}

	type acc struct{ n, mIn, mCut uint64 }
	local := make(map[uint32]*acc)
	get := func(l uint32) *acc {
		a := local[l]
		if a == nil {
			a = &acc{}
			local[l] = a
		}
		return a
	}
	for v := uint32(0); v < g.NLoc; v++ {
		lv := state[v]
		get(lv).n++
		for _, u := range g.OutNeighbors(v) {
			lu := state[u]
			if lu == lv {
				get(lv).mIn++
			} else {
				get(lv).mCut++
				get(lu).mCut++
			}
		}
	}

	// Route accumulators to each label's owner as (label, n, mIn, mCut)
	// quads of uint64.
	p := ctx.Size()
	counts := make([]int, p)
	for l := range local {
		counts[g.Part.Owner(l)] += 4
	}
	offs := make([]int, p)
	at := 0
	for d := 0; d < p; d++ {
		offs[d] = at
		at += counts[d]
	}
	send := make([]uint64, at)
	for l, a := range local {
		d := g.Part.Owner(l)
		send[offs[d]] = uint64(l)
		send[offs[d]+1] = a.n
		send[offs[d]+2] = a.mIn
		send[offs[d]+3] = a.mCut
		offs[d] += 4
	}
	recv, _, err := comm.Alltoallv(ctx.Comm, send, counts)
	if err != nil {
		return nil, err
	}
	agg := make(map[uint32]*acc)
	for i := 0; i+3 < len(recv); i += 4 {
		l := uint32(recv[i])
		a := agg[l]
		if a == nil {
			a = &acc{}
			agg[l] = a
		}
		a.n += recv[i+1]
		a.mIn += recv[i+2]
		a.mCut += recv[i+3]
	}

	// Local top-k candidates, then global re-rank of the gathered pool.
	cands := make([]CommunityStat, 0, len(agg))
	for l, a := range agg {
		cands = append(cands, CommunityStat{Label: l, N: a.n, MIn: a.mIn, MCut: a.mCut})
	}
	sortStats(cands)
	if len(cands) > k {
		cands = cands[:k]
	}
	flat := make([]uint64, 0, 4*len(cands))
	for _, c := range cands {
		flat = append(flat, uint64(c.Label), c.N, c.MIn, c.MCut)
	}
	all, _, err := comm.Allgatherv(ctx.Comm, flat)
	if err != nil {
		return nil, err
	}
	pool := make([]CommunityStat, 0, len(all)/4)
	for i := 0; i+3 < len(all); i += 4 {
		pool = append(pool, CommunityStat{
			Label: uint32(all[i]), N: all[i+1], MIn: all[i+2], MCut: all[i+3],
		})
	}
	sortStats(pool)
	if len(pool) > k {
		pool = pool[:k]
	}
	return pool, nil
}

func sortStats(s []CommunityStat) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].N != s[j].N {
			return s[i].N > s[j].N
		}
		return s[i].Label < s[j].Label
	})
}
