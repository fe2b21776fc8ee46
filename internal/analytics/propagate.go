package analytics

import (
	"fmt"

	"repro/internal/core"
)

// colorMin and colorMax select a coloring's combine, min (WCC, KCoreApprox's
// cut, SCC's backward sweeps) or max (SCC's forward coloring): comparisons
// run on label^flip, and ^flip, the identity, marks an inactive owned vertex.
const (
	colorMin uint32 = 0
	colorMax uint32 = ^uint32(0)
)

// propagation is the one coloring of WCC, KCoreApprox and SCC, with the
// scratch it keeps across runs.
type propagation struct {
	rd     *claimRound
	stack  []uint32 // owned vertices whose label changed since they last pushed
	ghosts []uint32 // ghosts whose bound improved since the last round
	queued []bool   // over owned and ghost vertices: on stack or in ghosts
}

func newPropagation(g *core.Graph, rd *claimRound) *propagation {
	return &propagation{rd: rd, queued: make([]bool, g.NTotal())}
}

// run drives labels to the fixed point where, along every dir edge v->u
// between active vertices, u's label is at least as good as v's under the
// combine flip selects; a claim may carry labels up to top. An owned entry of
// labels is the vertex's label, or ^flip if it is inactive; a ghost entry is
// a bound that its owner's label is at least as good as — its initial label,
// or the best this rank has claimed for it since. Each hop pushes the changed
// labels through the owned vertices to a local fixed point (GoFFish's
// sub-graph-centric rule), then claims every improved ghost bound at its
// owner as one (slot, label) word on the claim round of bucket.go. The hop in
// which no rank claims anything ends the run, so hops are the coloring's only
// collectives; span names each.
//
// The cascade is depth-first and starts from the best label (owned ids
// ascend with local ids), so that label floods its local component in one
// pass and the vertices after it, already passed on, are skipped unread.
func (pr *propagation) run(ctx *core.Ctx, labels []uint32, dir Dir, flip, top uint32, span string) error {
	g, rd := pr.rd.g, pr.rd
	stack := pr.stack[:0]
	for i := range g.NLoc {
		v := i
		if flip == colorMin {
			v = g.NLoc - 1 - i
		}
		if labels[v] != ^flip {
			stack = append(stack, v)
			pr.queued[v] = true
		}
	}
	tr := ctx.Comm.Tracer()
	for hop := int64(0); ; hop++ {
		mark := tr.Now()
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !pr.queued[v] {
				continue // pushed again since, and already passed on
			}
			pr.queued[v] = false
			if dir != Backward {
				stack = pr.push(labels, g.OutNeighbors(v), labels[v], flip, stack)
			}
			if dir != Forward {
				stack = pr.push(labels, g.InNeighbors(v), labels[v], flip, stack)
			}
		}
		rd.open(ctx, ctlWord(len(pr.ghosts), ctlNone), pr.ghosts, 0, false)
		for _, u := range pr.ghosts {
			rd.put(u, uint64(labels[u]))
			pr.queued[u] = false
		}
		pr.ghosts = pr.ghosts[:0]
		claims, _, err := rd.exchange(ctx)
		if err != nil {
			return err
		}
		tr.Span(span, mark, hop)
		if claims == 0 {
			pr.stack = stack
			return nil
		}
		for r := range ctx.Size() {
			seg := rd.claims(r)
			if seg.wide {
				return rd.corrupt(ctx, r, "wide claims")
			}
			for _, w := range seg.words {
				v, x := seg.verts[w>>32], uint32(w)
				if x > top || x == ^flip {
					return rd.corrupt(ctx, r, "label %d on vertex %d, past %d", x, g.GlobalID(v), top)
				}
				if labels[v] == ^flip || x^flip >= labels[v]^flip {
					continue
				}
				labels[v] = x
				if !pr.queued[v] {
					pr.queued[v] = true
					stack = append(stack, v)
				}
			}
		}
	}
}

// push offers label l to nbrs: an active owned neighbour it improves goes on
// top of stack, so the best label floods depth-first, and a ghost whose bound
// it improves joins pr.ghosts.
func (pr *propagation) push(labels, nbrs []uint32, l, flip uint32, stack []uint32) []uint32 {
	nloc := pr.rd.g.NLoc
	for _, u := range nbrs {
		if labels[u]^flip <= l^flip || u < nloc && labels[u] == ^flip {
			continue
		}
		labels[u] = l
		if u < nloc {
			stack = append(stack, u)
		} else if !pr.queued[u] {
			pr.ghosts = append(pr.ghosts, u)
		}
		pr.queued[u] = true
	}
	return stack
}

// kcoreRest is the level of an owned vertex still alive.
const kcoreRest = ^uint32(0)

// peel is the one peel of exact k-core, KCoreApprox's threshold levels and
// SCC's trim. An owned vertex has an in-counter and an out-counter (k-core:
// one undirected degree serving as both; trim: in- and out-degree) and dies
// once one falls below the threshold. A death takes one from the in-counter
// of each out-neighbour and the out-counter of each in-neighbour: at once
// when owned, so deaths cascade to a local fixed point, else as a count
// pending on the ghost. A round ships each pending (ghost, counter) as one
// packed claim on the claim round of bucket.go, slot then
// count<<split | counter; its control word counts the sender's deaths since
// the last round and, when the sender had none, carries its least live
// counter. The round with no death anywhere ends a run, and the least of
// its control words is the least counter left anywhere.
type peel struct {
	g  *core.Graph
	rd *claimRound
	// rem[c][v] is owned v's counter c, rem[1] the same array as rem[0]
	// when split is 0. Deaths keep counting a dead vertex's counters down,
	// so a counter never falls below the edges still to report to it,
	// which is what an arriving count is checked against. A ghost's entry
	// counts down from 0, so owned and ghost neighbours take one path
	// through peelRelax: it is minus the count pending for its owner.
	rem   [2][]uint32
	split uint32 // 1 when the two counters are separate (trim), else 0
	// level[v] is the threshold less one at which owned v died, or
	// kcoreRest while it lives: k-core's coreness, trim's dead flag.
	level []uint32
	// front lists the vertices a counter took below the threshold, the
	// frontier at front[head:tail]; one whose two counters both fall is
	// listed twice and dies once. The last scan's least live counter and
	// the `seeds` vertices it parked at front[tail:] stay current until
	// scanned drops.
	front      []uint32
	head, tail int
	live       []uint32 // owned vertices no scan has seen dead yet
	// floor is the threshold of the open run, or of the last one: a vertex
	// whose least counter is below it is dead.
	floor, scanMin uint32
	seeds          int
	scanned        bool
	// touched lists the ghosts with a count pending, once per counter.
	touched       []uint32
	rounds        int    // rounds with a death anywhere
	deaths, edges uint64 // this rank's deaths and the edge endpoints they reported
}

// newPeel sets up a peel over every owned vertex, alive, with its
// undirected degree as its one counter, or with split 1 its in- and
// out-degree. Collective when the claim round builds the halo.
func newPeel(ctx *core.Ctx, g *core.Graph, kernel string, split uint32) (*peel, error) {
	if g.MOut()+g.MIn() >= 1<<31 {
		return nil, fmt.Errorf("analytics: %s counts in 32 bits; rank %d holds %d edge endpoints", kernel, ctx.Rank(), g.MOut()+g.MIn())
	}
	rd, err := newClaimRound(ctx, g, kernel)
	if err != nil {
		return nil, err
	}
	// One slot of slack on front and touched: see peelRelax.
	s := &peel{
		g: g, rd: rd, split: split,
		level:   make([]uint32, g.NLoc),
		live:    make([]uint32, g.NLoc),
		front:   make([]uint32, int(g.NLoc)<<split+1),
		touched: make([]uint32, 0, int(g.NGst)<<split+1),
	}
	for c := range split + 1 {
		s.rem[c] = make([]uint32, g.NTotal())
	}
	s.rem[1] = s.rem[split] // one array for both counters unless split
	for v := range g.NLoc {
		s.rem[1][v] = uint32(g.OutDegree(v))
		s.rem[0][v] += uint32(g.InDegree(v)) // the sum when rem[0] is rem[1]
		s.level[v], s.live[v] = kcoreRest, v
	}
	return s, nil
}

// run kills every live vertex with a counter below `below`, and every
// vertex the deaths take below it, and returns the least counter left
// alive anywhere (ctlNone if none is). below 0 kills nothing: the run is
// one round that only finds the least. span, if set, names each round.
func (s *peel) run(ctx *core.Ctx, below uint32, span string) (least uint32, err error) {
	// The seeds. A scan cached from the last run parked the vertices at
	// its least counter: all that is below a threshold one past it.
	if !s.scanned || uint64(s.scanMin)+1 < uint64(below) {
		s.scan(below)
	}
	if s.scanMin < below {
		s.tail += s.seeds
		s.scanned = false
	}
	s.floor = below
	k := below - 1 // a counter that reaches k has crossed
	tr := ctx.Comm.Tracer()
	for {
		mark := tr.Now()
		died := s.drain(k)
		least = ctlNone
		if died == 0 {
			if !s.scanned {
				s.scan(below)
			}
			least = s.scanMin
		}
		deaths, gLeast, err := s.round(ctx, ctlWord(died, least), k)
		if err != nil {
			return 0, err
		}
		if span != "" {
			tr.Span(span, mark, int64(died))
		}
		if deaths == 0 {
			return gLeast, nil
		}
		s.rounds++
	}
}

// scan compacts live down to the vertices still alive — those at floor or
// above — finds their least counter and parks behind the frontier the
// vertices that have it, or, for a threshold more than one past it, every
// vertex below the threshold. It runs on an empty frontier only.
func (s *peel) scan(below uint32) {
	in, live, seeds, floor := s.rem[0], s.live, s.front[s.tail:], s.floor
	out := s.rem[1][:len(in)]
	least, n, w := ctlNone, 0, 0
	for _, v := range live {
		x := in[v]
		if y := out[v]; y < x { // not min: for k-core y is x, and this never jumps
			x = y
		}
		if x < floor {
			continue
		}
		live[w] = v
		w++
		if x < least {
			least, n = x, 0
		}
		if x == least {
			seeds[n] = v
			n++
		}
	}
	if uint64(least)+1 < uint64(below) {
		n = 0
		for _, v := range live[:w] {
			if min(in[v], out[v]) < below {
				seeds[n] = v
				n++
			}
		}
	}
	s.live = live[:w]
	s.scanMin, s.seeds, s.scanned = least, n, true
}

// drain kills the frontier at level k, cascade included, and returns the
// deaths.
func (s *peel) drain(k uint32) (died int) {
	g := s.g
	for ; s.head < s.tail; s.head++ {
		v := s.front[s.head]
		if s.level[v] != kcoreRest {
			continue
		}
		s.level[v] = k
		died++
		// Out-neighbours lose an in-count, in-neighbours an out-count.
		for c, nbrs := range [2][]uint32{g.OutNeighbors(v), g.InNeighbors(v)} {
			t := s.touched
			nd, nf := peelRelax(nbrs, s.rem[c], k, s.front[s.tail:], t[len(t):cap(t)])
			s.tail, s.touched, s.edges = s.tail+nd, t[:len(t)+nf], s.edges+uint64(len(nbrs))
		}
	}
	s.deaths += uint64(died)
	return died
}

// peelRelax takes one from every neighbour's counter in rem and returns
// how many it appended to drop (owned counters that reached k: their
// vertices join the frontier at once) and to first (ghosts that were at
// 0). Whether a neighbour crosses is a coin flip in the dense tail, so
// nothing branches on it: every visit stores the counter and the
// neighbour's id at both cursors, and the cursors advance by 0/1 outcomes
// read off 64-bit arithmetic on the 32-bit values.
func peelRelax(nbrs, rem []uint32, k uint32, drop, first []uint32) (nd, nf int) {
	for _, u := range nbrs {
		x := rem[u] - 1
		rem[u] = x
		drop[nd] = u
		nd += int((uint64(x^k) - 1) >> 63) // x == k
		first[nf] = u
		nf += int((uint64(x) + 1) >> 32) // x wrapped
	}
	return nd, nf
}

// round ships every peer ctl and the pending counts, puts the touched
// ghosts back to 0, and applies the counts that arrive: each is checked
// against what its counter has left, and a vertex whose counter it takes
// from above k to k or below joins the frontier (a dead one is skipped
// there).
func (s *peel) round(ctx *core.Ctx, ctl uint64, k uint32) (deaths uint64, least uint32, err error) {
	g, rd, split := s.g, s.rd, s.split
	rd.open(ctx, ctl, s.touched, 0, false)
	for _, u := range s.touched {
		// A ghost listed twice has both counters pending: the first entry
		// ships the in-count.
		c := uint32((uint64(s.rem[0][u]) - 1) >> 63) // 1 once the in-count is 0
		rd.put(u, uint64(-s.rem[c][u])<<split|uint64(c))
		s.rem[c][u] = 0
	}
	s.touched = s.touched[:0]
	if deaths, least, err = rd.exchange(ctx); err != nil {
		return 0, 0, err
	}
	for r := range ctx.Size() {
		seg := rd.claims(r)
		if seg.wide {
			return 0, 0, rd.corrupt(ctx, r, "wide claims")
		}
		for _, w := range seg.words {
			v, x := seg.verts[w>>32], uint32(w)
			c, n := x&split, x>>split
			left := s.rem[c][v]
			if n == 0 || n > left {
				return 0, 0, rd.corrupt(ctx, r, "count of %d on counter %d of vertex %d with %d left", n, c, g.GlobalID(v), left)
			}
			s.rem[c][v] = left - n
			if left > k && left-n <= k {
				s.front[s.tail] = v
				s.tail++
			}
			s.scanned = false
		}
	}
	return deaths, least, nil
}
