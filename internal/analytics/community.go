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

	type acc struct {
		n, mIn, mCut uint64
		from         int // on the label's owner: the first rank to report it
	}
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
	// quads. A record may honestly count no vertices (a label seen only
	// across a cut edge), but some vertex carries every label, so each
	// owned total counts 1 to NGlobal vertices.
	n := uint64(g.NGlobal)
	agg := make(map[uint32]*acc)
	err = routeToOwners(ctx, g, "community stats", 4, local,
		func(rec []uint64, a *acc) { rec[0], rec[1], rec[2] = a.n, a.mIn, a.mCut },
		func(r int, l uint32, rec []uint64) error {
			a := agg[l]
			if a == nil {
				a = &acc{from: r}
				agg[l] = a
			}
			if rec[0] > n-a.n {
				return corruptFrom(ctx, r, "community stats: %d more vertices in community %d, past the %d in the graph", rec[0], l, n)
			}
			a.n += rec[0]
			a.mIn += rec[1]
			a.mCut += rec[2]
			return nil
		})
	if err != nil {
		return nil, err
	}
	for l, a := range agg {
		if a.n == 0 {
			return nil, corruptFrom(ctx, a.from, "community stats: community %d has no vertices", l)
		}
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
	all, counts, err := comm.Allgatherv(ctx.Comm, flat)
	if err != nil {
		return nil, err
	}
	// Each rank's segment is at most k of the communities it owns.
	pool := make([]CommunityStat, 0, len(all)/4)
	for r, m := range counts {
		seg := all[:m]
		all = all[m:]
		if m%4 != 0 || m > 4*k {
			return nil, corruptFrom(ctx, r, "top communities: %d words, not at most %d whole (label, n, mIn, mCut) records", m, k)
		}
		for i := 0; i < m; i += 4 {
			l, nv := seg[i], seg[i+1]
			if l >= n || g.Part.Owner(uint32(l)) != r || nv == 0 || nv > n {
				return nil, corruptFrom(ctx, r, "top communities: %d vertices in community %d, not a community of the sender's in a %d-vertex graph", nv, l, n)
			}
			pool = append(pool, CommunityStat{Label: uint32(l), N: nv, MIn: seg[i+2], MCut: seg[i+3]})
		}
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
