package analytics

import (
	"fmt"

	"repro/internal/core"
)

// Exact k-core decomposition by level-synchronous peeling, without a
// priority structure: at Δ=1 every decrement would move its vertex one
// bucket, so the kernel keeps one counter per vertex and finds each level —
// the smallest remaining degree anywhere — by scanning the vertices still
// alive. Level k peels every vertex whose remaining degree has fallen to k
// (its coreness is exactly k), and a peeled vertex's owned neighbours that
// drop to k are peeled in the same sub-round, so only a chain's rank
// crossings cost a round. Unlike KCoreApprox's powers-of-two upper bounds,
// this yields the exact coreness of every vertex.
//
// Every round is one claimRound (bucket.go). A peer's control word counts
// the vertices the sender peeled this round and, when it had none to peel
// and scanned instead, carries its smallest remaining degree; its claims are
// one packed word per ghost touched in the sub-round, the payload the
// decrements. A round in which no rank peeled carries no claims, so every
// rank's scan is current and the minimum of the control words is the next
// level: a level costs one round, a sub-round one round, and there is no
// other collective.

// KCoreExactResult carries exact per-vertex coreness and run metadata.
type KCoreExactResult struct {
	// Coreness[v] is the exact coreness of owned local vertex v under
	// undirected degree (parallel edges counted per copy, self-loops twice,
	// matching KCoreApprox's degree convention).
	Coreness []uint32
	// MaxCore is the global maximum coreness (the degeneracy).
	MaxCore uint32
	// Rounds is the number of peel sub-rounds: rounds in which some rank
	// peeled. It depends on which vertices share a rank (a chain inside one
	// rank unzips in a single sub-round); the counts below do not.
	Rounds int
	// Levels is the number of distinct coreness values.
	Levels int
	// Peeled and Scanned count the vertices this rank peeled and the edge
	// endpoints it scanned doing so: NLoc and MOut+MIn.
	Peeled, Scanned uint64
}

// kcoreRest is a ghost's counter with nothing pending — it counts down once
// per decrement, so owned and ghost neighbours take one path through the
// peel loop — and a control word's "no minimum".
const kcoreRest = ^uint32(0)

// kcorePeel is one rank's state of a run. rem[v] is owned v's remaining
// degree, frozen at its coreness once v is queued (a vertex at or below the
// level ignores decrements: it is peeled, or about to be in this sub-round);
// rem[ghost] is kcoreRest minus the decrements pending for its owner, and
// touched lists the ghosts that have any. order is the peel order, with the
// frontier at order[head:tail]; live lists the owned vertices no scan has
// seen peeled yet. The last scan's minimum and the seeds vertices that have
// it (parked at order[tail:]) stay current until scanned drops.
type kcorePeel struct {
	g                *core.Graph
	rd               *claimRound
	rem, order, live []uint32
	head, tail       int
	scanMin          uint32
	seeds            int
	scanned          bool
	touched          []uint32
	edges            uint64
}

// KCoreExact computes the exact coreness of every owned vertex. Collective.
func KCoreExact(ctx *core.Ctx, g *core.Graph) (*KCoreExactResult, error) {
	if err := require1D(g, "exact k-core"); err != nil {
		return nil, err
	}
	if g.MOut()+g.MIn() >= 1<<31 {
		return nil, fmt.Errorf("analytics: exact k-core counts in 32 bits; rank %d holds %d edge endpoints", ctx.Rank(), g.MOut()+g.MIn())
	}
	rd, err := newClaimRound(ctx, g, "exact k-core")
	if err != nil {
		return nil, err
	}
	// One slot of slack on order and touched: see kcoreRelax.
	s := &kcorePeel{
		g: g, rd: rd,
		rem:     make([]uint32, g.NTotal()),
		order:   make([]uint32, g.NLoc+1),
		live:    make([]uint32, g.NLoc),
		touched: make([]uint32, 0, g.NGst+1),
	}
	for v := uint32(0); v < g.NLoc; v++ {
		s.rem[v] = uint32(g.OutDegree(v) + g.InDegree(v))
		s.live[v] = v
	}
	for i := g.NLoc; i < g.NTotal(); i++ {
		s.rem[i] = kcoreRest
	}

	res := &KCoreExactResult{}
	tr := ctx.Comm.Tracer()
	var k, floor uint32 // the open level, and the least degree not yet peeled
	var mark int64
	for {
		least := kcoreRest
		if s.head == s.tail {
			s.scan(floor)
			least = s.scanMin
		}
		from := s.head
		s.peel(k)
		gPeeled, gMin, err := s.round(ctx, ctlWord(s.head-from, least), k)
		if err != nil {
			return nil, err
		}
		if gPeeled > 0 {
			res.Rounds++
			continue
		}
		// Nobody peeled, so nobody claimed and every rank scanned: the level
		// is closed and gMin is the next one.
		if res.Levels > 0 {
			tr.Span(SpanKCorePeel, mark, int64(k))
		}
		if gMin == kcoreRest {
			break
		}
		mark = tr.Now()
		k, floor = gMin, gMin+1
		res.Levels++
		if s.scanMin == k {
			s.tail += s.seeds
			s.scanned = false
		}
	}
	res.Coreness, res.MaxCore = s.rem[:g.NLoc:g.NLoc], k
	res.Peeled, res.Scanned = uint64(s.tail), s.edges
	return res, nil
}

// scan compacts live down to the vertices not yet peeled (those at floor or
// above) and finds their smallest remaining degree and the vertices that
// have it. It runs on an empty frontier only.
func (s *kcorePeel) scan(floor uint32) {
	if s.scanned {
		return
	}
	rem, seeds := s.rem, s.order[s.tail:]
	min, n, w := kcoreRest, 0, 0
	for _, v := range s.live {
		x := rem[v]
		if x < floor {
			continue
		}
		s.live[w] = v
		w++
		if x < min {
			min, n = x, 0
		}
		if x == min {
			seeds[n] = v
			n++
		}
	}
	s.live = s.live[:w]
	s.scanMin, s.seeds, s.scanned = min, n, true
}

// peel drains the frontier at level k, cascade included.
func (s *kcorePeel) peel(k uint32) {
	g, order, touched := s.g, s.order, s.touched[:cap(s.touched)]
	head, tail, nt := s.head, s.tail, 0
	for ; head < tail; head++ {
		out, in := g.OutNeighbors(order[head]), g.InNeighbors(order[head])
		s.edges += uint64(len(out) + len(in))
		nd, nf := kcoreRelax(out, s.rem, k, order[tail:], touched[nt:])
		tail, nt = tail+nd, nt+nf
		nd, nf = kcoreRelax(in, s.rem, k, order[tail:], touched[nt:])
		tail, nt = tail+nd, nt+nf
	}
	s.head, s.tail, s.touched = head, tail, touched[:nt]
}

// kcoreRelax takes one from every neighbour still above k and returns how
// many it appended to drop (owned ones that reached k: they join the
// frontier at once) and to first (ghosts that were at rest). Whether a
// neighbour is still above k is a coin flip in the dense tail, so nothing
// branches on it: every visit stores the (possibly unchanged) counter and the
// neighbour's id at both cursors, and the cursors advance by 0/1 outcomes
// read off the sign of 64-bit differences of the 32-bit values.
func kcoreRelax(nbrs, rem []uint32, k uint32, drop, first []uint32) (nd, nf int) {
	kk := uint64(k)
	for _, u := range nbrs {
		x := uint64(rem[u])
		above := (kk - x) >> 63      // x > k
		higher := (kk + 1 - x) >> 63 // x > k+1
		rem[u] = uint32(x - above)
		drop[nd] = u
		nd += int(above - higher)
		first[nf] = u
		nf += int((x + 1) >> 32) // x == kcoreRest
	}
	return nd, nf
}

// round ships every peer ctl and this sub-round's claims against its
// vertices, puts the touched ghosts back to rest, and folds what arrives:
// the vertices peeled anywhere this round, the smallest scanned degree, and
// the claims, applied at level k. A claimed vertex still above k loses the
// count and joins the frontier if that takes it to k or below; one already
// at k was peeled in the same sub-round as the claimant, and the two ignore
// each other.
func (s *kcorePeel) round(ctx *core.Ctx, ctl uint64, k uint32) (gPeeled uint64, gMin uint32, err error) {
	g, rd, rem := s.g, s.rd, s.rem
	rd.open(ctx, ctl, s.touched, 0, false)
	for _, u := range s.touched {
		rd.put(u, uint64(kcoreRest-rem[u]))
		rem[u] = kcoreRest
	}
	s.touched = s.touched[:0]
	if gPeeled, gMin, err = rd.exchange(ctx); err != nil {
		return 0, 0, err
	}
	for r := range ctx.Size() {
		seg := rd.claims(r)
		if seg.wide {
			return 0, 0, rd.corrupt(ctx, r, "wide claims")
		}
		for _, w := range seg.words {
			v, c := seg.verts[w>>32], w&(1<<32-1)
			x := rem[v]
			if x <= k {
				continue
			}
			// Exact accounting: a count is a number of v's live endpoints.
			if c == 0 || c > uint64(x) {
				return 0, 0, rd.corrupt(ctx, r, "claim of %d on vertex %d with %d endpoints left", c, g.GlobalID(v), x)
			}
			if x -= uint32(c); x <= k {
				x = k
				s.order[s.tail] = v
				s.tail++
			}
			rem[v] = x
			s.scanned = false
		}
	}
	return gPeeled, gMin, nil
}
