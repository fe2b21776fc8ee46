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

// slotPeel is the peel of KCoreApprox's levels and SCC's trim. An owned
// vertex has 1<<shift counters (k-core: undirected degree; trim: in- and
// out-degree) and dies once one falls below the threshold. A death takes one
// from counter 0 of each out-neighbour and the last counter of each
// in-neighbour: at once when owned, so deaths cascade to a local fixed
// point, else as a pending count. A round ships each pending (ghost,
// counter) as one packed claim, slot then count<<shift | counter; its
// control word counts the sender's deaths since the last round and carries
// 0 while the sender has live vertices, so the round with no death anywhere
// ends the peel and says whether anything survived.
type slotPeel struct {
	g     *core.Graph
	rd    *claimRound
	shift uint32
	// rem[v<<shift|c] is owned v's counter c. Deaths keep counting it down,
	// so it never falls below the edges still to report, which is what an
	// arriving count is checked against.
	rem     []uint32
	pend    []uint32 // (u-NLoc)<<shift|c: the count pending for ghost u's counter c
	touched []uint32 // pend indexes holding a count
	lids    []uint32 // touched's ghosts, to lay out the round
	peeled  []bool
	dead    []uint32 // deaths whose edges the cascade has yet to drop
	live    int      // owned vertices alive
	died    int      // deaths since the last round
}

// newSlotPeel sizes a peel with 1<<shift counters per owned vertex, all
// alive and zero. Collective when the claim round builds the halo.
func newSlotPeel(ctx *core.Ctx, g *core.Graph, kernel string, shift uint32) (*slotPeel, error) {
	if g.MOut()+g.MIn() >= 1<<31 {
		return nil, fmt.Errorf("analytics: %s counts in 32 bits; rank %d holds %d edge endpoints", kernel, ctx.Rank(), g.MOut()+g.MIn())
	}
	rd, err := newClaimRound(ctx, g, kernel)
	if err != nil {
		return nil, err
	}
	s := &slotPeel{
		g: g, rd: rd, shift: shift,
		rem:    make([]uint32, g.NLoc<<shift),
		pend:   make([]uint32, g.NGst<<shift),
		peeled: make([]bool, g.NLoc),
		dead:   make([]uint32, 0, g.NLoc),
		live:   int(g.NLoc),
	}
	return s, nil
}

// run peels at threshold k to the fixed point — every live vertex with a
// counter below k dies, and so does every vertex the deaths take below k —
// and reports whether any vertex survives anywhere. span names each round.
func (s *slotPeel) run(ctx *core.Ctx, k uint64, span string) (survivors bool, err error) {
	for v := range s.g.NLoc {
		for c := uint32(0); c < 1<<s.shift && !s.peeled[v]; c++ {
			if uint64(s.rem[v<<s.shift|c]) < k {
				s.kill(v)
			}
		}
	}
	tr := ctx.Comm.Tracer()
	for {
		mark := tr.Now()
		for i := 0; i < len(s.dead); i++ {
			v := s.dead[i]
			s.drop(s.g.OutNeighbors(v), 0, k)
			s.drop(s.g.InNeighbors(v), 1<<s.shift-1, k)
		}
		s.dead = s.dead[:0]
		least, died := ctlNone, s.died
		if s.live > 0 {
			least = 0
		}
		deaths, gLeast, err := s.round(ctx, ctlWord(died, least), k)
		if err != nil {
			return false, err
		}
		tr.Span(span, mark, int64(died))
		if deaths == 0 {
			return gLeast == 0, nil
		}
	}
}

func (s *slotPeel) kill(v uint32) {
	s.peeled[v] = true
	s.dead = append(s.dead, v)
	s.live--
	s.died++
}

// drop takes one from counter c of every neighbour in nbrs.
func (s *slotPeel) drop(nbrs []uint32, c uint32, k uint64) {
	nloc := s.g.NLoc
	for _, u := range nbrs {
		if u < nloc {
			i := u<<s.shift | c
			s.rem[i]--
			if !s.peeled[u] && uint64(s.rem[i]) < k {
				s.kill(u)
			}
			continue
		}
		j := (u-nloc)<<s.shift | c
		if s.pend[j] == 0 {
			s.touched = append(s.touched, j)
		}
		s.pend[j]++
	}
}

// round ships ctl and the pending counts, then applies the counts that
// arrive at threshold k, checking each against what its counter has left.
func (s *slotPeel) round(ctx *core.Ctx, ctl uint64, k uint64) (deaths uint64, least uint32, err error) {
	g, rd, mask := s.g, s.rd, uint32(1)<<s.shift-1
	s.lids = s.lids[:0]
	for _, j := range s.touched {
		s.lids = append(s.lids, g.NLoc+j>>s.shift)
	}
	rd.open(ctx, ctl, s.lids, 0, false)
	for i, j := range s.touched {
		rd.put(s.lids[i], uint64(s.pend[j]<<s.shift|j&mask))
		s.pend[j] = 0
	}
	s.touched, s.died = s.touched[:0], 0
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
			i, n := v<<s.shift|x&mask, x>>s.shift
			if n == 0 || n > s.rem[i] {
				return 0, 0, rd.corrupt(ctx, r, "count of %d on counter %d of vertex %d with %d left", n, x&mask, g.GlobalID(v), s.rem[i])
			}
			s.rem[i] -= n
			if !s.peeled[v] && uint64(s.rem[i]) < k {
				s.kill(v)
			}
		}
	}
	return deaths, least, nil
}
