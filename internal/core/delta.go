package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/edge"
	"repro/internal/par"
)

// Delta is one rank's mutable overlay on top of an immutable base shard:
// the streaming-ingest counterpart of the build-once CSR. Deleted base
// edges are tombstoned by CSR position (a bitset over OutEdges/InEdges),
// and inserted edges accumulate per owned vertex as global-id adjacency.
// The logical adjacency of owned vertex v is
//
//	base CSR row of v  minus  tombstoned positions  plus  extra rows
//
// which MergeDelta packs back into a plain *Graph — so analytics traverse
// mutated graphs through the exact Table II structures they already know,
// and ghost discovery (including ghosts created or orphaned by cut-edge
// mutations) reruns from the merged adjacency.
//
// Mutation semantics, identical on both CSR sides and in the sequential
// oracle edge.Batch.ApplyTo: an insert is a no-op if any live copy of the
// edge exists; a delete tombstones every live copy and is a no-op if none
// exists. Applying the same batch twice is therefore a no-op, which makes
// failover replay of an in-flight batch safe.
type Delta struct {
	base *Graph

	// tombOut/tombIn are lazily allocated bitsets over base CSR positions.
	tombOut, tombIn   []uint64
	tombOutN, tombInN uint64

	// extraOut/extraIn map an owned local id to inserted neighbor global
	// ids, ascending (MergeDelta merges them into the sorted base rows).
	extraOut, extraIn   map[uint32][]uint32
	extraOutN, extraInN uint64

	lastID uint64
}

// NewDelta returns an empty overlay over base.
func NewDelta(base *Graph) *Delta {
	return &Delta{
		base:     base,
		extraOut: make(map[uint32][]uint32),
		extraIn:  make(map[uint32][]uint32),
	}
}

// FastForward raises the replay watermark without applying anything. A
// compaction swap replaces a shard's overlay with a fresh one over the new
// base; the new overlay must keep the old watermark or a replayed batch
// (already folded into the base) would apply twice.
func (d *Delta) FastForward(id uint64) {
	if id > d.lastID {
		d.lastID = id
	}
}

// Empty reports whether the overlay changes nothing.
func (d *Delta) Empty() bool {
	return d.tombOutN == 0 && d.tombInN == 0 && d.extraOutN == 0 && d.extraInN == 0
}

// LastID returns the id of the most recently applied batch.
func (d *Delta) LastID() uint64 { return d.lastID }

// LiveOut returns the rank-local live out-edge count under the overlay.
func (d *Delta) LiveOut() uint64 { return d.base.MOut() - d.tombOutN + d.extraOutN }

// LiveIn returns the rank-local live in-edge count under the overlay.
func (d *Delta) LiveIn() uint64 { return d.base.MIn() - d.tombInN + d.extraInN }

// Clone deep-copies the overlay structures needed by MergeDelta, so a
// background merge can run while new batches keep applying to the
// original.
func (d *Delta) Clone() *Delta {
	c := &Delta{
		base:     d.base,
		tombOutN: d.tombOutN, tombInN: d.tombInN,
		extraOutN: d.extraOutN, extraInN: d.extraInN,
		extraOut: make(map[uint32][]uint32, len(d.extraOut)),
		extraIn:  make(map[uint32][]uint32, len(d.extraIn)),
		lastID:   d.lastID,
	}
	c.tombOut = append([]uint64(nil), d.tombOut...)
	c.tombIn = append([]uint64(nil), d.tombIn...)
	for v, gids := range d.extraOut {
		c.extraOut[v] = append([]uint32(nil), gids...)
	}
	for v, gids := range d.extraIn {
		c.extraIn[v] = append([]uint32(nil), gids...)
	}
	return c
}

func bitGet(words []uint64, i uint64) bool {
	return words != nil && words[i>>6]&(1<<(i&63)) != 0
}

func bitSet(words []uint64, i uint64) { words[i>>6] |= 1 << (i & 63) }

func (d *Delta) tombstones(out bool) []uint64 {
	if out {
		if d.tombOut == nil {
			d.tombOut = make([]uint64, (d.base.MOut()+63)/64)
		}
		return d.tombOut
	}
	if d.tombIn == nil {
		d.tombIn = make([]uint64, (d.base.MIn()+63)/64)
	}
	return d.tombIn
}

// Apply applies one batch to the overlay: in batch order, each record
// changes the out side if this shard owns its source and the in side if
// it owns its destination. Every rank holds the whole batch (it travels in
// the job broadcast), so nothing routes it, and every replica of a shard
// applies the same records in the same order. A batch id at or below the
// last applied id is a failover replay and is skipped whole.
func (d *Delta) Apply(id uint64, batch edge.Batch) error {
	if id <= d.lastID {
		return nil
	}
	b := d.base
	for _, m := range batch {
		if b.Part.Owner(m.Src) == b.rank {
			if err := d.applySide(true, m.Op, m.Src, m.Dst); err != nil {
				return err
			}
		}
		if b.Part.Owner(m.Dst) == b.rank {
			if err := d.applySide(false, m.Op, m.Dst, m.Src); err != nil {
				return err
			}
		}
	}
	d.lastID = id
	return nil
}

// applySide applies one record to one CSR side of the owned vertex
// ownedGid: its out side (neighbor nbrGid is the destination) or its in
// side (nbrGid is the source). Neighbors are matched by global id so
// edges to vertices the base shard has never seen (fresh ghosts) work
// uniformly.
func (d *Delta) applySide(out bool, op edge.Op, ownedGid, nbrGid uint32) error {
	b := d.base
	lid := b.LocalID(ownedGid)
	if lid >= b.NLoc {
		return fmt.Errorf("core: vertex %d is owned by rank %d but not in its shard", ownedGid, b.rank)
	}
	idx, edges := b.InIdx, b.InEdges
	extras := d.extraIn
	if out {
		idx, edges = b.OutIdx, b.OutEdges
		extras = d.extraOut
	}
	tombs := d.tombstones(out)

	// Count live base copies (and remember positions for deletion).
	liveBase := 0
	for i := idx[lid]; i < idx[lid+1]; i++ {
		if !bitGet(tombs, i) && b.Unmap[edges[i]] == nbrGid {
			liveBase++
		}
	}
	row := extras[lid]
	liveExtra := 0
	for _, gid := range row {
		if gid == nbrGid {
			liveExtra++
		}
	}

	switch op {
	case edge.OpInsert:
		if liveBase+liveExtra > 0 {
			return nil
		}
		i, _ := slices.BinarySearch(row, nbrGid)
		extras[lid] = slices.Insert(row, i, nbrGid)
		if out {
			d.extraOutN++
		} else {
			d.extraInN++
		}
	case edge.OpDelete:
		if liveBase+liveExtra == 0 {
			return nil
		}
		for i := idx[lid]; i < idx[lid+1]; i++ {
			if !bitGet(tombs, i) && b.Unmap[edges[i]] == nbrGid {
				bitSet(tombs, i)
				if out {
					d.tombOutN++
				} else {
					d.tombInN++
				}
			}
		}
		if liveExtra > 0 {
			kept := row[:0]
			for _, gid := range row {
				if gid != nbrGid {
					kept = append(kept, gid)
				}
			}
			if len(kept) == 0 {
				delete(extras, lid)
			} else {
				extras[lid] = kept
			}
			if out {
				d.extraOutN -= uint64(liveExtra)
			} else {
				d.extraInN -= uint64(liveExtra)
			}
		}
	default:
		return fmt.Errorf("core: invalid mutation op %d", op)
	}
	return nil
}

// MergeDelta packs the overlay into a fresh *Graph in canonical form:
//
//   - every owned vertex's row is its live base entries plus its extras,
//     sorted by neighbor global id;
//   - owned vertices keep [0, NLoc) in ascending global order, and ghosts
//     take NLoc, NLoc+1, ... in order of first appearance in a scan of the
//     merged out rows (vertex by vertex, each row in its sorted order)
//     followed by the merged in rows — a ghost no live edge references any
//     more gets no id.
//
// The output therefore depends only on the logical mutated graph, never on
// mutation arrival order or on how often the overlay was compacted —
// replicas that compacted at different times still materialize
// byte-identical shards. mGlobal is the global live edge count (an
// Allreduce of LiveOut, done by the caller because merging itself is
// deliberately communication-free).
//
// One pass in the base's local-id space reads each base edge once and
// stores each merged edge once, renumbered by the rule above as its row
// becomes final; a touched row merges its extras, each resolved through
// the base's map (an unseen global id gets a temporary id past NLoc+NGst).
// An identity renumbering shares the base's Unmap, Map and GhostOwner. The
// result is checked for what the merge derived (checkMerged), not
// re-validated: what it copies from its base is trusted. A base not known
// to be in order (from Build or a shard file) is scanned first and marked
// if it is; if not, every merged row is sorted before the renumbering, on
// every merge until a compaction makes a merged shard the base.
func MergeDelta(d *Delta, mGlobal uint64) (*Graph, error) {
	g, _, err := mergeDelta(d, mGlobal)
	return g, err
}

// mergeStats counts the work of one merge; tests pin the cheap path with
// it (no behaviour reads it).
type mergeStats struct {
	rowsChecked int  // rows scanned for global-id order
	rowsSorted  int  // rows that failed the scan and were sorted
	written     int  // ids stored renumbered into the merged edge arrays
	mapLookups  int  // probes of the base's map (one per extra)
	mapPuts     int  // entries put into a rebuilt map
	freshGhosts int  // inserted neighbors the base had never seen
	sharedMap   bool // the renumbering was the identity
}

// merger is the scratch state of one mergeDelta call.
type merger struct {
	b  *Graph
	nb uint32 // b.NTotal(): temporary ids of fresh ghosts start here
	// fresh lists the global ids the base has never seen, in order of
	// resolution; fresh[k] has temporary id nb+k.
	fresh   []uint32
	freshID map[uint32]uint32
	// newLid maps base and temporary ids to merged ids, InvalidLocal until
	// first sight; seen lists the ids that became ghosts, in merged order.
	newLid   []uint32
	seen     []uint32
	identity bool     // every ghost so far kept its base id
	keys     []uint64 // row-sort scratch
	stats    mergeStats
}

// lidOf resolves an inserted neighbor to a base local id, or to a
// temporary id if the base holds neither the vertex nor a ghost of it.
func (m *merger) lidOf(gid uint32) uint32 {
	m.stats.mapLookups++
	if lid := m.b.Map.GetOr(gid, InvalidLocal); lid != InvalidLocal {
		return lid
	}
	if id, ok := m.freshID[gid]; ok {
		return id
	}
	if m.freshID == nil {
		m.freshID = make(map[uint32]uint32)
	}
	id := m.nb + uint32(len(m.fresh))
	m.fresh = append(m.fresh, gid)
	m.freshID[gid] = id
	return id
}

// gidOf is lidOf's inverse over base and temporary ids.
func (m *merger) gidOf(lid uint32) uint32 {
	if lid < m.nb {
		return m.b.Unmap[lid]
	}
	return m.fresh[lid-m.nb]
}

// sortRow puts one row (base or temporary ids) in ascending global-id
// order. Copies of one neighbor carry the same id, so ties need no rule.
func (m *merger) sortRow(row []uint32) {
	m.stats.rowsChecked++
	if slices.IsSortedFunc(row, func(a, b uint32) int { return cmp.Compare(m.gidOf(a), m.gidOf(b)) }) {
		return
	}
	m.stats.rowsSorted++
	m.keys = m.keys[:0]
	for _, lid := range row {
		m.keys = append(m.keys, uint64(m.gidOf(lid))<<32|uint64(lid))
	}
	slices.Sort(m.keys)
	for i, k := range m.keys {
		row[i] = uint32(k)
	}
}

// inOrder scans one base side's rows for global-id order, up to a failure.
func (m *merger) inOrder(idx []uint64, edges []uint32) bool {
	for v := uint32(0); v < m.b.NLoc; v++ {
		m.stats.rowsChecked++
		for i := idx[v] + 1; i < idx[v+1]; i++ {
			if m.b.Unmap[edges[i-1]] > m.b.Unmap[edges[i]] {
				return false
			}
		}
	}
	return true
}

// put stores src's ids into dst as merged ids (an id seen first becomes the
// next ghost), or as they are while newLid is nil, and returns how many.
func (m *merger) put(dst, src []uint32) uint64 {
	newLid := m.newLid
	if newLid == nil {
		return uint64(copy(dst, src))
	}
	m.stats.written += len(src)
	dst = dst[:len(src)]
	for i, l := range src {
		n := newLid[l]
		if n == InvalidLocal {
			n = m.b.NLoc + uint32(len(m.seen))
			newLid[l] = n
			m.seen = append(m.seen, l)
			m.identity = m.identity && n == l
		}
		dst[i] = n
	}
	return uint64(len(src))
}

// mergeRow puts touched row [lo, hi) at out[pos:] and returns the new end:
// each run of live base entries whole, split by binary search where an
// extra (ex is ascending; never a live base neighbor) goes in, or, over a
// base not in order (newLid nil), with the extras last for a later sort.
func (m *merger) mergeRow(out []uint32, pos, lo, hi uint64, edges []uint32, tombs []uint64, ex []uint32) uint64 {
	for i := lo; i <= hi; i++ {
		j := i
		for j < hi && !bitGet(tombs, j) {
			j++
		}
		run := edges[i:j]
		for ; len(ex) > 0; ex = ex[1:] {
			k := len(run)
			if m.newLid != nil {
				k = sort.Search(len(run), func(k int) bool { return m.b.Unmap[run[k]] > ex[0] })
			}
			if k == len(run) && j < hi {
				break // the extra goes after a later run
			}
			pos += m.put(out[pos:], run[:k])
			pos += m.put(out[pos:], []uint32{m.lidOf(ex[0])})
			run = run[k:]
		}
		pos += m.put(out[pos:], run)
		i = j // a tombstone, or hi
	}
	return pos
}

// touchedRows returns, ascending and without repeats, the owned vertices
// whose row on one side the overlay changed: those with extras and those
// holding a tombstoned base position.
func touchedRows(idx []uint64, tombs []uint64, tombN uint64, extras map[uint32][]uint32) []uint32 {
	rows := make([]uint32, 0, len(extras)+int(tombN))
	for v := range extras {
		rows = append(rows, v)
	}
	if tombN > 0 {
		v := 0 // tombstone positions ascend, so their rows do too
		par.ForEachSetBit(tombs, int(idx[len(idx)-1]), func(pos int) {
			v += sort.Search(len(idx)-1-v, func(i int) bool { return idx[v+i+1] > uint64(pos) })
			rows = append(rows, uint32(v))
		})
	}
	slices.Sort(rows)
	return slices.Compact(rows)
}

// side merges one CSR side: runs of untouched rows are put whole with
// their index entries shifted, touched rows are merged (mergeRow).
func (m *merger) side(idx []uint64, edges []uint32, tombs []uint64, tombN uint64, extras map[uint32][]uint32, live uint64) ([]uint64, []uint32) {
	newIdx := make([]uint64, m.b.NLoc+1)
	out := make([]uint32, live)
	pos := uint64(0)
	copyRows := func(lo, hi uint32) {
		shift := pos - idx[lo] // modular: pos may be below idx[lo]
		pos += m.put(out[pos:], edges[idx[lo]:idx[hi]])
		for v := lo; v < hi; v++ {
			newIdx[v+1] = idx[v+1] + shift
		}
	}
	next := uint32(0)
	for _, v := range touchedRows(idx, tombs, tombN, extras) {
		copyRows(next, v)
		pos = m.mergeRow(out, pos, idx[v], idx[v+1], edges, tombs, extras[v])
		newIdx[v+1] = pos
		next = v + 1
	}
	copyRows(next, m.b.NLoc)
	return newIdx, out
}

func mergeDelta(d *Delta, mGlobal uint64) (*Graph, mergeStats, error) {
	b := d.base
	nloc := b.NLoc
	m := &merger{b: b, nb: b.NTotal(), identity: true}
	sorted := b.rowsSorted.Load() || m.inOrder(b.OutIdx, b.OutEdges) && m.inOrder(b.InIdx, b.InEdges)
	b.rowsSorted.Store(sorted)         // the base is immutable: a scan's verdict holds
	extras := d.extraOutN + d.extraInN // bounds the temporary ids
	newLid := make([]uint32, uint64(m.nb)+extras)
	for v := range newLid {
		newLid[v] = InvalidLocal
	}
	for v := uint32(0); v < nloc; v++ {
		newLid[v] = v // owned ids map to themselves: no owned/ghost branch per edge
	}
	m.seen = make([]uint32, 0, uint64(b.NGst)+extras)
	if sorted {
		m.newLid = newLid
	}
	outIdx, outEdges := m.side(b.OutIdx, b.OutEdges, d.tombOut, d.tombOutN, d.extraOut, d.LiveOut())
	inIdx, inEdges := m.side(b.InIdx, b.InEdges, d.tombIn, d.tombInN, d.extraIn, d.LiveIn())
	if !sorted { // the sides hold base ids: sort each row, then renumber
		for v := uint32(0); v < nloc; v++ {
			m.sortRow(outEdges[outIdx[v]:outIdx[v+1]])
			m.sortRow(inEdges[inIdx[v]:inIdx[v+1]])
		}
		m.newLid = newLid
		m.put(outEdges, outEdges)
		m.put(inEdges, inEdges)
	}
	ngst := uint32(len(m.seen))
	m.stats.freshGhosts = len(m.fresh)

	g := &Graph{
		NGlobal:  b.NGlobal,
		MGlobal:  mGlobal,
		NLoc:     nloc,
		NGst:     ngst,
		OutIdx:   outIdx,
		OutEdges: outEdges,
		InIdx:    inIdx,
		InEdges:  inEdges,
		Part:     b.Part,
		rank:     b.rank,
	}
	g.rowsSorted.Store(true)
	if m.identity && ngst == b.NGst {
		g.Unmap, g.Map, g.GhostOwner = b.Unmap, b.Map, b.GhostOwner
		m.stats.sharedMap = true
	} else {
		g.Unmap = make([]uint32, nloc+ngst)
		copy(g.Unmap, b.Unmap[:nloc])
		g.GhostOwner = make([]int32, ngst)
		for k, l := range m.seen {
			gid := m.gidOf(l)
			g.Unmap[nloc+uint32(k)] = gid
			if l < m.nb {
				g.GhostOwner[k] = b.GhostOwner[l-nloc]
			} else {
				g.GhostOwner[k] = int32(b.Part.Owner(gid))
			}
		}
		g.Map = mapOf(g.Unmap)
		m.stats.mapPuts = len(g.Unmap)
	}
	if err := checkMerged(g); err != nil {
		return nil, m.stats, fmt.Errorf("core: merged shard invalid: %w", err)
	}
	return g, m.stats, nil
}

// checkMerged verifies what the merge derived, as Validate would but without
// re-deriving what it copied from its trusted base (owned ids, base ghosts'
// owners, a shared map): the index arrays ascend and end at their edge
// arrays' lengths, no ghost is owned here, and the map holds one entry per
// local id (no global id got two). Edge endpoints are not scanned: put
// numbers an id either as an owned id or as NLoc+len(seen), so every one
// is below NTotal by construction; the merge battery's Validate checks it.
func checkMerged(g *Graph) error {
	for v := uint32(0); v < g.NLoc; v++ {
		if g.OutIdx[v] > g.OutIdx[v+1] || g.InIdx[v] > g.InIdx[v+1] {
			return fmt.Errorf("decreasing CSR index at %d", v)
		}
	}
	if g.MOut() != uint64(len(g.OutEdges)) || g.MIn() != uint64(len(g.InEdges)) {
		return fmt.Errorf("CSR ends %d/%d for %d/%d edges", g.MOut(), g.MIn(), len(g.OutEdges), len(g.InEdges))
	}
	for gi, owner := range g.GhostOwner {
		if owner == int32(g.rank) {
			return fmt.Errorf("ghost %d owned by this rank", g.Unmap[g.NLoc+uint32(gi)])
		}
	}
	if g.Map.Len() != int(g.NTotal()) {
		return fmt.Errorf("map has %d entries, want %d", g.Map.Len(), g.NTotal())
	}
	return nil
}
