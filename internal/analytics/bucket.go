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
// nothing (see update). The group settles buckets in ascending global order:
// one Allreduce(min) per bucket picks the next non-empty bucket on any rank,
// and per-bucket ghost claims reuse the frontier engine's hybrid
// sparse-stream / dense fused-bitmap exchange.

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
// vertices per thread and apply updates serially, the same discipline the
// round-based SSSP uses for its queue.
type bucketStore struct {
	delta   uint64
	numOpen uint64
	// cur is the settled floor: the bucket id the last nextBucket returned.
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

// nextBucket advances to the globally smallest non-empty bucket: one
// Allreduce(min) over every rank's local minimum. ok is false when every
// bucket on every rank is empty. Collective.
func (b *bucketStore) nextBucket(ctx *core.Ctx) (k uint64, ok bool, err error) {
	local := b.localMin()
	k, err = comm.Allreduce(ctx.Comm, local, comm.OpMin)
	if err != nil {
		return 0, false, err
	}
	if k == infBucket {
		return 0, false, nil
	}
	b.advance(k)
	b.stats.Buckets++
	return k, true, nil
}

// extract appends bucket k's live members to dst and takes them out of the
// structure (a later update re-inserts them — the in-bucket decrease-key
// path of Δ-stepping). k must be the id the last nextBucket returned.
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

// bucketComm bundles the frontier engine with retained sparse-stream
// scratch for Δ-stepping's per-bucket ghost claim exchange. Claims travel
// either as aligned (gid, value) streams or as the engine's fused
// bitmap+payload dense exchange, chosen per round by the same globally
// reduced byte estimate as PR 5's frontier exchange (sparse for thin
// buckets, dense for fat ones). Collective: every rank calls exchange once
// per relaxation sub-round, claims or not.
type bucketComm struct {
	eng       *frontierEngine
	cur       []int
	intCounts []int
	sendGid   []uint32
	recvGid   []uint32
	sendVal   []uint64
	recvVal   []uint64

	recvGidCounts []int
	recvValCounts []int
}

func newBucketComm(eng *frontierEngine) *bucketComm {
	return &bucketComm{eng: eng}
}

// exchange routes one sub-round of ghost claims (unique ghost lids — the
// callers dedup via CAS flags) to their owners: vals[u] is claim u's
// payload, apply receives each owned vertex's arriving payload. Both
// representations deliver the same (vertex, payload) multiset, so the
// fixed point is representation-independent.
func (bc *bucketComm) exchange(ctx *core.Ctx, claims []uint32, vals []uint64, apply func(v uint32, x uint64)) error {
	eng := bc.eng
	g := eng.g
	dense, err := eng.denseClaimRound(ctx, len(claims), 8)
	if err != nil {
		return err
	}
	if dense {
		if err := eng.ensureHalo(ctx); err != nil {
			return err
		}
		return eng.reverseValueExchange(ctx, claims, vals, apply)
	}
	eng.noteSparse(len(claims), 12)
	intCounts, cur, total := ownerSegments(g, ctx.Size(), claims, 0, bc.intCounts, bc.cur)
	bc.intCounts, bc.cur = intCounts, cur
	if cap(bc.sendGid) < total {
		bc.sendGid = make([]uint32, total)
		bc.sendVal = make([]uint64, total)
	}
	sendGid, sendVal := bc.sendGid[:total], bc.sendVal[:total]
	for _, u := range claims {
		d := g.GhostOwner[u-g.NLoc]
		sendGid[cur[d]] = g.GlobalID(u)
		sendVal[cur[d]] = vals[u]
		cur[d]++
	}
	bc.recvGid, bc.recvGidCounts, err = comm.AlltoallvInto(ctx.Comm, sendGid, intCounts, bc.recvGid, bc.recvGidCounts)
	if err != nil {
		return err
	}
	bc.recvVal, bc.recvValCounts, err = comm.AlltoallvInto(ctx.Comm, sendVal, intCounts, bc.recvVal, bc.recvValCounts)
	if err != nil {
		return err
	}
	if len(bc.recvGid) != len(bc.recvVal) {
		return fmt.Errorf("analytics: bucket claim streams misaligned")
	}
	for i, gid := range bc.recvGid {
		// The id came off the wire: a forged or misrouted one must fail the
		// job, not panic the rank.
		lid := g.LocalID(gid)
		if lid >= g.NLoc {
			return fmt.Errorf("analytics: bucket claim for unowned vertex %d", gid)
		}
		apply(lid, bc.recvVal[i])
	}
	return nil
}
