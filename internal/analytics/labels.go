package analytics

import (
	"sort"

	"repro/internal/comm"
	"repro/internal/core"
)

// aggregateLabelCounts counts owned vertices per label (those passing the
// filter, if non-nil) and routes each label's count to the rank owning the
// label's vertex id under the graph's partitioner, so every label is
// totalled at exactly one rank. Returns this rank's aggregated portion.
func aggregateLabelCounts(ctx *core.Ctx, g *core.Graph, labels []uint32, filter func(v uint32) bool) (map[uint32]uint64, error) {
	local := make(map[uint32]uint64)
	for v := uint32(0); v < g.NLoc; v++ {
		if filter != nil && !filter(v) {
			continue
		}
		local[labels[v]]++
	}
	return routeCounts(ctx, g, local)
}

// routeCounts ships (label, count) pairs to each label's owning rank and
// returns the summed map on the owner. A peer running the census on this
// graph sends whole pairs, each a label this rank owns and a count in
// [1, NGlobal]; anything else fails the census as a corrupt message from
// that peer.
func routeCounts(ctx *core.Ctx, g *core.Graph, local map[uint32]uint64) (map[uint32]uint64, error) {
	out := make(map[uint32]uint64)
	n := uint64(g.NGlobal)
	err := routeToOwners(ctx, g, "label counts", 2, local,
		func(rec []uint64, c uint64) { rec[0] = c },
		func(from int, label uint32, rec []uint64) error {
			if c := rec[0]; c == 0 || c > n {
				return corruptFrom(ctx, from, "label counts: %d vertices labelled %d, a count a %d-vertex graph cannot have", c, label, n)
			}
			out[label] += rec[0]
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// routeToOwners ships one record of width uint64 words per entry of local
// to the rank owning the entry's label under the graph's partitioner, in
// one Alltoallv: the label, then the words put fills in. Every record this
// rank receives reaches take with its sender, once the sender's segment has
// proved to be whole records and the record's label one this rank owns;
// anything else fails the round as a corrupt message from that sender, as
// does an error from take.
func routeToOwners[V any](ctx *core.Ctx, g *core.Graph, what string, width int, local map[uint32]V,
	put func(rec []uint64, v V), take func(from int, label uint32, rec []uint64) error) error {
	p := ctx.Size()
	counts := make([]int, p)
	for label := range local {
		counts[g.Part.Owner(label)] += width
	}
	offs := make([]int, p)
	at := 0
	for d := 0; d < p; d++ {
		offs[d] = at
		at += counts[d]
	}
	send := make([]uint64, at)
	for label, v := range local {
		d := g.Part.Owner(label)
		send[offs[d]] = uint64(label)
		put(send[offs[d]+1:offs[d]+width], v)
		offs[d] += width
	}
	recv, recvCounts, err := comm.Alltoallv(ctx.Comm, send, counts)
	if err != nil {
		return err
	}
	n := uint64(g.NGlobal)
	for r, m := range recvCounts {
		seg := recv[:m]
		recv = recv[m:]
		if m%width != 0 {
			return corruptFrom(ctx, r, "%s: %d words, not whole %d-word records", what, m, width)
		}
		for i := 0; i < m; i += width {
			label := seg[i]
			if label >= n || g.Part.Owner(uint32(label)) != ctx.Rank() {
				return corruptFrom(ctx, r, "%s: label %d, which this rank does not own", what, label)
			}
			if err := take(r, uint32(label), seg[i+1:i+width]); err != nil {
				return err
			}
		}
	}
	return nil
}

// largestLabel finds the globally largest label by count (ties toward the
// smallest label, matching the sequential oracle's first-found rule) from
// each rank's owned portion of the aggregated counts. ok is false when no
// rank holds any label.
func largestLabel(ctx *core.Ctx, owned map[uint32]uint64) (label uint32, size uint64, ok bool, err error) {
	var bestLabel uint32
	var bestSize uint64
	for l, c := range owned {
		if c > bestSize || (c == bestSize && c > 0 && l < bestLabel) {
			bestLabel, bestSize = l, c
		}
	}
	sizes, err := comm.Allgather(ctx.Comm, bestSize)
	if err != nil {
		return 0, 0, false, err
	}
	labelCands, err := comm.Allgather(ctx.Comm, bestLabel)
	if err != nil {
		return 0, 0, false, err
	}
	for r := range sizes {
		if sizes[r] > size || (sizes[r] == size && sizes[r] > 0 && labelCands[r] < label) {
			size, label = sizes[r], labelCands[r]
		}
	}
	return label, size, size > 0, nil
}

// countRepresentatives returns the global number of distinct components
// given per-owned-vertex labels where each component's label is one of its
// member's global ids: a vertex whose label equals its own id is the
// component representative.
func countRepresentatives(ctx *core.Ctx, g *core.Graph, labels []uint32) (uint64, error) {
	var local uint64
	for v := uint32(0); v < g.NLoc; v++ {
		if labels[v] == g.GlobalID(v) {
			local++
		}
	}
	return comm.Allreduce(ctx.Comm, local, comm.OpSum)
}

// SizeDistribution aggregates per-label sizes globally and returns, on
// every rank, the sorted multiset of component/community sizes — the data
// behind the paper's Figure 5 frequency plot. Intended for reporting at
// modest scale: the result has one entry per distinct label.
func SizeDistribution(ctx *core.Ctx, g *core.Graph, labels []uint32) ([]uint64, error) {
	owned, err := aggregateLabelCounts(ctx, g, labels, nil)
	if err != nil {
		return nil, err
	}
	local := make([]uint64, 0, len(owned))
	for _, c := range owned {
		local = append(local, c)
	}
	all, _, err := comm.Allgatherv(ctx.Comm, local)
	if err != nil {
		return nil, err
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all, nil
}
