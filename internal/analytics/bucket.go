package analytics

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/obs"
)

// The distributed bucket structure (in the style of Julienne/GBBS) under
// Δ-stepping SSSP. Each rank keeps its owned vertices in an open-addressed
// window of buckets keyed by priority/Δ plus one overflow list; decrease-key
// is lazy — a moved vertex is simply appended to its new bucket, and the
// stale copies it leaves behind are recognized (and dropped) by checking the
// authoritative per-vertex bucket id at extract time. The overflow list
// holds at most one copy of a vertex for as long as the vertex stays beyond
// the window: a move from one beyond-window bucket to another appends
// nothing (see update). The group settles buckets in ascending global order,
// the next one folded from the control words of the claim round below, which
// Δ-stepping shares with exact k-core.

// infBucket marks a vertex that is in no bucket (never inserted, or
// currently extracted).
const infBucket = ^uint64(0)

// bucketWindow is the open-addressed window width: the number of bucket
// slots reachable without touching the overflow list. Priorities are
// processed in ascending order, so a window of 64 keeps the common case
// (ids within 64 buckets of the current minimum) a single append.
const bucketWindow = 64

// bucketStore is the per-rank half of the distributed bucket structure.
// It is not thread-safe: the parallel relaxation loops collect improved
// vertices per thread and apply updates serially.
type bucketStore struct {
	delta   uint64
	numOpen uint64
	// cur is the settled floor: the bucket id the last advance moved to.
	// Every bucket below cur is globally empty, and nothing files below it:
	// weights are non-negative, so a relaxation out of bucket cur lands in
	// cur or later.
	cur      uint64
	open     [][]uint32 // open[id%numOpen] holds entries for in-window id
	overflow []uint32   // entries with id >= cur+numOpen at insert time
	bktOf    []uint64   // authoritative bucket id per owned vertex
	stats    obs.BucketStats
}

// newBucketStore sizes the structure for n owned vertices with the given
// bucket width (delta >= 1) and open-window size.
func newBucketStore(n int, delta uint64, numOpen int) *bucketStore {
	b := &bucketStore{delta: delta, numOpen: uint64(numOpen)}
	b.open = make([][]uint32, numOpen)
	b.bktOf = make([]uint64, n)
	b.reset()
	return b
}

// reset empties the structure — every vertex in no bucket, the settled
// floor and the counters at zero — keeping the lists' capacity for the
// next run over the same vertices.
func (b *bucketStore) reset() {
	b.cur = 0
	for i := range b.open {
		b.open[i] = b.open[i][:0]
	}
	b.overflow = b.overflow[:0]
	for i := range b.bktOf {
		b.bktOf[i] = infBucket
	}
	b.stats = obs.BucketStats{}
}

// bucketOf maps a priority onto its bucket id.
func (b *bucketStore) bucketOf(d uint64) uint64 {
	if d == InfDistance {
		return infBucket
	}
	return d / b.delta
}

// update is the lazy decrease-key (and first insert): v moves to the
// bucket of priority d by appending; any copy in its old bucket becomes a
// tombstone recognized later by the bktOf mismatch.
func (b *bucketStore) update(v uint32, d uint64) {
	id := b.bucketOf(d)
	old := b.bktOf[v]
	if id == old {
		return
	}
	if old != infBucket {
		b.stats.Reinserts++
	}
	b.bktOf[v] = id
	if id == infBucket {
		return
	}
	if id >= b.cur+b.numOpen {
		b.stats.OverflowSpills++
		// A vertex whose old bucket was already beyond the window has a copy
		// in overflow: it went there when it left the window (or first came
		// in), and no scan since can have dropped it, because scans drop only
		// extracted vertices and those the window has reached. That one copy
		// serves the new id too — entries carry no id, bktOf is read when
		// they are scanned — so a second would only be rescanned with it.
		if old == infBucket || old < b.cur+b.numOpen {
			b.overflow = append(b.overflow, v)
		}
		return
	}
	s := id % b.numOpen
	b.open[s] = append(b.open[s], v)
}

// compact drops tombstones from bucket id's open slot and returns the
// number of live entries for exactly this id. Duplicated live copies (a
// vertex updated twice into the same list) are benign: extract takes the
// first and tombstones the rest.
func (b *bucketStore) compact(id uint64) int {
	s := id % b.numOpen
	lst := b.open[s]
	live := lst[:0]
	n := 0
	for _, v := range lst {
		bv := b.bktOf[v]
		if bv == infBucket || bv%b.numOpen != s || bv < b.cur {
			b.stats.Tombstones++
			continue
		}
		live = append(live, v)
		if bv == id {
			n++
		}
	}
	b.open[s] = live
	return n
}

// localMin returns this rank's smallest non-empty bucket id (infBucket if
// every bucket is empty), compacting tombstones as it scans. The window is
// scanned in ascending id order; only when it is completely empty is the
// overflow list consulted.
func (b *bucketStore) localMin() uint64 {
	for id := b.cur; id < b.cur+b.numOpen; id++ {
		if b.compact(id) > 0 {
			return id
		}
	}
	min := infBucket
	live := b.overflow[:0]
	for _, v := range b.overflow {
		bv := b.bktOf[v]
		if bv == infBucket || bv < b.cur+b.numOpen {
			// Stale: in no bucket, or moved into the (just proven empty) window —
			// in the latter case the live copy sits in an open list already.
			b.stats.Tombstones++
			continue
		}
		live = append(live, v)
		if bv < min {
			min = bv
		}
	}
	b.overflow = live
	return min
}

// advance moves the settled floor (and with it the open window) to the
// globally agreed bucket k and pulls newly in-window overflow entries into
// their open slots. k never decreases: nothing files below cur, so the
// global minimum is at least the previous k.
func (b *bucketStore) advance(k uint64) {
	if k == b.cur {
		return
	}
	b.cur = k
	live := b.overflow[:0]
	for _, v := range b.overflow {
		bv := b.bktOf[v]
		if bv == infBucket {
			b.stats.Tombstones++
			continue
		}
		if bv < b.cur+b.numOpen {
			b.open[bv%b.numOpen] = append(b.open[bv%b.numOpen], v)
			continue
		}
		live = append(live, v)
	}
	b.overflow = live
}

// extract appends bucket k's live members to dst and takes them out of the
// structure (a later update re-inserts them — the in-bucket decrease-key
// path of Δ-stepping). k must be the id the last advance moved to.
func (b *bucketStore) extract(k uint64, dst []uint32) []uint32 {
	s := k % b.numOpen
	lst := b.open[s]
	keep := lst[:0]
	taken := 0
	for _, v := range lst {
		bv := b.bktOf[v]
		if bv == k {
			b.bktOf[v] = infBucket
			dst = append(dst, v)
			taken++
			continue
		}
		if bv != infBucket && bv%b.numOpen == s && bv >= b.cur {
			keep = append(keep, v) // live for a same-slot future bucket
			continue
		}
		b.stats.Tombstones++
	}
	b.open[s] = keep
	b.stats.Extracted += uint64(taken)
	return dst
}

// claimRound is the one wire round of the peel, the colorings, Δ-stepping's
// light and heavy phases and BFS's sparse push levels. A round is one
// AlltoallvInto of 64-bit words: each peer's segment opens with a control
// word and goes on with claims, each naming its ghost by the slot in the
// owner's DirsBoth halo queue for the sender, so the owner indexes the queue
// instead of hashing a global id. What the kernels need to agree on after a round — is anyone
// still working, which level or bucket is next — is a fold of the control
// words, so they run no other collective per round.
//
// A control word: bit 63 says the segment's claims are wide — two words, the
// slot in the high half of the first and the payload in the second — instead
// of one word carrying the payload's offset from the round's base in its low
// half; bits 32-62 count the vertices the sender relaxed this round (a sender
// that relaxed none has nothing to claim); the low half is a value the group
// folds by minimum, ctlNone for none. A sender goes wide for a round when
// some payload is 2^32 or more past the base.
type claimRound struct {
	kernel string // names the kernel in a corrupt-message error
	g      *core.Graph
	h      *Halo
	slot   []int32 // the halo's owner-relative ghostSlot
	base   uint64  // the round's base for packed payloads
	wide   bool    // the round being laid out ships two words per claim

	send, recv              []uint64
	counts, cur, recvCounts []int
	offs                    []int // where each peer's received segment starts
}

const (
	ctlWide   = uint64(1) << 63
	ctlActive = 1<<31 - 1 // the active count saturates here
	ctlNone   = ^uint32(0)
)

// ctlWord packs a control word's active count and folded value; open adds
// the wide bit.
func ctlWord(active int, least uint32) uint64 {
	return uint64(min(active, ctlActive))<<32 | uint64(least)
}

// newClaimRound fetches the DirsBoth halo and its geometry and sizes the
// staging for one packed claim per ghost and per queue slot, so no round
// allocates unless it goes wide. Collective when the halo is built.
func newClaimRound(ctx *core.Ctx, g *core.Graph, kernel string) (*claimRound, error) {
	h, _, err := haloFor(ctx, g, DirsBoth)
	if err != nil {
		return nil, err
	}
	gm, err := h.geometry()
	if err != nil {
		return nil, err
	}
	p := ctx.Size()
	return &claimRound{
		kernel: kernel, g: g, h: h, slot: gm.ghostSlot,
		send: make([]uint64, p+int(g.NGst)),
		recv: make([]uint64, 0, p+len(h.sendVerts)),
		offs: make([]int, p),
	}, nil
}

// ownerSegments lays a round's send buffer out by owning rank for the p ranks
// of the group: counts[d] is the length of rank d's segment — its control
// word, then width per ghost in ghosts that d owns — cur[d] is where its first
// claim goes, and total the length of the whole buffer. counts and cur are
// reused when they are large enough.
func ownerSegments(g *core.Graph, p int, ghosts []uint32, width int, counts, cur []int) (_, _ []int, total int) {
	if cap(counts) < p {
		counts, cur = make([]int, p), make([]int, p)
	}
	counts, cur = counts[:p], cur[:p]
	for d := range counts {
		counts[d] = 1
	}
	for _, u := range ghosts {
		counts[g.GhostOwner[u-g.NLoc]] += width
	}
	for d, c := range counts {
		cur[d] = total + 1
		total += c
	}
	return counts, cur, total
}

// open lays out a round: every owner's segment starts with ctl and has room
// for one claim per ghost of ghosts it owns, which put then fills — payloads
// at or above base, packed unless wide.
func (c *claimRound) open(ctx *core.Ctx, ctl uint64, ghosts []uint32, base uint64, wide bool) {
	width := 1
	if wide {
		width, ctl = 2, ctl|ctlWide
	}
	var total int
	c.counts, c.cur, total = ownerSegments(c.g, ctx.Size(), ghosts, width, c.counts, c.cur)
	if cap(c.send) < total {
		c.send = make([]uint64, total)
	}
	c.send = c.send[:total]
	for _, i := range c.cur {
		c.send[i-1] = ctl
	}
	c.base, c.wide = base, wide
}

// put adds ghost u's claim with payload x to its owner's segment.
func (c *claimRound) put(u uint32, x uint64) {
	gi := u - c.g.NLoc
	d := c.g.GhostOwner[gi]
	i, w := c.cur[d], uint64(c.slot[gi])<<32
	if c.wide {
		c.send[i], c.send[i+1] = w, x
		c.cur[d] = i + 2
		return
	}
	c.send[i] = w | (x - c.base)
	c.cur[d] = i + 1
}

// exchange ships the round laid out since open and checks every field that
// came off the wire — a peer that runs the kernel on this graph cannot have
// sent a segment that fails — before folding the control words into the
// group's active count and least value.
func (c *claimRound) exchange(ctx *core.Ctx) (active uint64, least uint32, err error) {
	c.recv, c.recvCounts, err = comm.AlltoallvInto(ctx.Comm, c.send, c.counts, c.recv, c.recvCounts)
	if err != nil {
		return 0, 0, err
	}
	least = ctlNone
	off := 0
	for r, n := range c.recvCounts {
		if n == 0 {
			return 0, 0, c.corrupt(ctx, r, "segment without a control word")
		}
		seg := c.recv[off : off+n]
		c.offs[r], off = off, off+n
		a, width := seg[0]>>32&ctlActive, 1
		if seg[0]&ctlWide != 0 {
			width = 2
		}
		switch {
		case a == 0 && n > 1:
			return 0, 0, c.corrupt(ctx, r, "claims from a rank that relaxed nothing (%d words)", n-1)
		case (n-1)%width != 0:
			return 0, 0, c.corrupt(ctx, r, "%d claim words, not whole %d-word claims", n-1, width)
		}
		queue := uint64(c.h.sendCounts[r])
		for i := 1; i < n; i += width {
			if s := seg[i] >> 32; s >= queue {
				return 0, 0, c.corrupt(ctx, r, "claim on slot %d of a %d-vertex queue", s, queue)
			}
		}
		active += a
		least = min(least, uint32(seg[0]))
	}
	return active, least, nil
}

// claimSeg is one peer's claims from the last exchange: at(i) is the
// claimed owned vertex and its payload.
type claimSeg struct {
	words []uint64
	verts []uint32 // this rank's queue for the peer
	base  uint64
	wide  bool
}

func (c *claimRound) claims(r int) claimSeg {
	seg := c.recv[c.offs[r]:][:c.recvCounts[r]]
	verts := c.h.sendVerts[c.h.geom.sendVertOff[r]:][:c.h.sendCounts[r]]
	return claimSeg{words: seg[1:], verts: verts, base: c.base, wide: seg[0]&ctlWide != 0}
}

func (s claimSeg) len() int {
	if s.wide {
		return len(s.words) / 2
	}
	return len(s.words)
}

func (s claimSeg) at(i int) (v uint32, x uint64) {
	if s.wide {
		return s.verts[s.words[2*i]>>32], s.words[2*i+1]
	}
	w := s.words[i]
	return s.verts[w>>32], s.base + w&(1<<32-1)
}

// corrupt fails the query on a segment from peer that no rank running the
// kernel could have sent.
func (c *claimRound) corrupt(ctx *core.Ctx, peer int, format string, args ...any) error {
	return corruptFrom(ctx, peer, c.kernel+": "+format, args...)
}

// corruptFrom is the typed failure of a receive path that read from peer's
// segment what no rank running the same kernel on this graph sends.
func corruptFrom(ctx *core.Ctx, peer int, format string, args ...any) error {
	return &comm.CommError{Rank: ctx.Rank(), Peer: peer, Kind: comm.KindCorrupt,
		Err: fmt.Errorf("analytics: "+format, args...)}
}
