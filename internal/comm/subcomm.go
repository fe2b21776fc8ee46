package comm

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
)

// subTransport presents a subset of a parent transport's ranks as a
// Transport of its own. It relies on the SPMD lockstep discipline: a
// sub-group exchange is executed as one full-group round on the parent
// transport with nil messages for non-members, so every rank of the parent
// group must run its own sub-group collective at the same step (as the 2D
// traversal engine does — all grid columns expand, then all grid rows
// fold). Both transports already treat Exchange as a full-group rendezvous,
// which makes this mapping exact: wire accounting, fault injection, and
// borrowed views all flow through unchanged.
type subTransport struct {
	parent  Transport
	members []int    // global ranks, ascending; contains the parent rank
	idx     int      // this rank's index within members
	full    [][]byte // scratch full-group out board
	sub     [][]byte // scratch member-indexed in view
}

func newSubTransport(parent Transport, members []int) (*subTransport, error) {
	p := parent.Size()
	self := parent.Rank()
	idx := -1
	for k, g := range members {
		if k > 0 && members[k-1] >= g {
			return nil, fmt.Errorf("comm: sub-group members not strictly ascending: %v", members)
		}
		if g < 0 || g >= p {
			return nil, fmt.Errorf("comm: sub-group member %d outside group of %d", g, p)
		}
		if g == self {
			idx = k
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("comm: rank %d not in sub-group %v", self, members)
	}
	return &subTransport{
		parent:  parent,
		members: append([]int(nil), members...),
		idx:     idx,
		full:    make([][]byte, p),
		sub:     make([][]byte, len(members)),
	}, nil
}

// Rank implements Transport (the sub-group rank).
func (s *subTransport) Rank() int { return s.idx }

// Size implements Transport (the sub-group size).
func (s *subTransport) Size() int { return len(s.members) }

// GlobalRank returns the parent-group rank behind a sub-group rank.
func (s *subTransport) GlobalRank(sub int) int { return s.members[sub] }

// spread places member-indexed messages on the full parent board (nil for
// non-members) and gather picks the members' slots back out.
func (s *subTransport) spread(out [][]byte) ([][]byte, error) {
	if len(out) != len(s.members) {
		return nil, fmt.Errorf("comm: sub-group exchange with %d messages for %d members", len(out), len(s.members))
	}
	for i := range s.full {
		s.full[i] = nil
	}
	for k, g := range s.members {
		s.full[g] = out[k]
	}
	return s.full, nil
}

func (s *subTransport) gather(in [][]byte) [][]byte {
	for k, g := range s.members {
		s.sub[k] = in[g]
	}
	return s.sub
}

// wrap attributes a parent-transport failure to this rank's parent/global
// id before Comm sees it; Comm's own wrapErr leaves an existing CommError
// intact, so sub-group failures keep global-rank attribution (a TCP peer
// failure arrives here already peer-attributed and passes through as-is).
func (s *subTransport) wrap(err error) error {
	if err == nil {
		return nil
	}
	var ce *CommError
	if errors.As(err, &ce) {
		return err
	}
	return &CommError{Rank: s.parent.Rank(), Peer: -1, Kind: Classify(err), Err: err}
}

// Exchange implements Transport as one full-group parent round.
func (s *subTransport) Exchange(out [][]byte) ([][]byte, time.Duration, error) {
	full, err := s.spread(out)
	if err != nil {
		return nil, 0, err
	}
	in, wait, err := s.parent.Exchange(full)
	if err != nil {
		return nil, wait, s.wrap(err)
	}
	return s.gather(in), wait, nil
}

// Release implements Transport by releasing the parent's round.
func (s *subTransport) Release() (time.Duration, error) {
	wait, err := s.parent.Release()
	return wait, s.wrap(err)
}

// Close implements Transport. The parent owns the underlying transport, so
// closing a sub-group view is a no-op.
func (s *subTransport) Close() error { return nil }

// Group bundles a rank's parent communicator with its row and column
// sub-communicators over an r×c process grid (rank g sits at grid position
// (g/c, g%c)). The sub-communicators share the parent's transport, tracer
// and metrics: every sub-group round is a full-group round
// with nil slots for non-members, so obs counters and CommError attribution
// keep working per sub-group with no transport changes.
type Group struct {
	Parent *Comm
	Row    *Comm // the c ranks sharing this rank's grid row
	Col    *Comm // the r ranks sharing this rank's grid column
	// RowRanks / ColRanks list the global ranks behind each sub-group
	// slot, ascending (so Row.Rank() indexes RowRanks, likewise Col).
	RowRanks []int
	ColRanks []int
}

// NewGridGroup splits a parent communicator of p = r·c ranks into row and
// column sub-communicators of the r×c grid.
func NewGridGroup(parent *Comm, rows, cols int) (*Group, error) {
	p := parent.Size()
	if rows <= 0 || cols <= 0 || rows*cols != p {
		return nil, fmt.Errorf("comm: grid %dx%d over %d ranks", rows, cols, p)
	}
	self := parent.Rank()
	i, j := self/cols, self%cols
	rowRanks := make([]int, cols)
	for jj := 0; jj < cols; jj++ {
		rowRanks[jj] = i*cols + jj
	}
	colRanks := make([]int, rows)
	for ii := 0; ii < rows; ii++ {
		colRanks[ii] = ii*cols + j
	}
	return NewGroup(parent, rowRanks, colRanks)
}

// NewGroup builds a Group from explicit row and column member lists. Both
// lists must be strictly ascending and contain the parent rank.
func NewGroup(parent *Comm, rowRanks, colRanks []int) (*Group, error) {
	if !sort.IntsAreSorted(rowRanks) || !sort.IntsAreSorted(colRanks) {
		return nil, fmt.Errorf("comm: sub-group members must be ascending")
	}
	rowTr, err := newSubTransport(parent.Transport(), rowRanks)
	if err != nil {
		return nil, err
	}
	colTr, err := newSubTransport(parent.Transport(), colRanks)
	if err != nil {
		return nil, err
	}
	g := &Group{
		Parent:   parent,
		Row:      New(rowTr),
		Col:      New(colTr),
		RowRanks: append([]int(nil), rowRanks...),
		ColRanks: append([]int(nil), colRanks...),
	}
	g.syncObs()
	return g, nil
}

// syncObs points both sub-communicators at the parent's tracer and metrics
// so sub-group rounds land in the same observability sinks.
func (g *Group) syncObs() {
	g.Row.SetTracer(g.Parent.Tracer())
	g.Col.SetTracer(g.Parent.Tracer())
	g.Row.SetMetrics(g.Parent.Metrics())
	g.Col.SetMetrics(g.Parent.Metrics())
}

// SetMetrics attaches counters to the parent and both sub-communicators.
func (g *Group) SetMetrics(m *obs.Metrics) {
	g.Parent.SetMetrics(m)
	g.syncObs()
}

// ResetStats zeroes the parent AND both sub-communicators' breakdowns (plus
// the shared obs counters), so a measured region that includes sub-group
// rounds still satisfies the Sent-MiB == Stats invariant: obs counters and
// the group's summed Stats describe exactly the same region.
func (g *Group) ResetStats() {
	g.Parent.ResetStats()
	g.Row.ResetStats()
	g.Col.ResetStats()
}

// TakeStats drains the group's combined breakdown. Byte and exchange
// counters sum across the three communicators. The time breakdown
// needs care: the three clocks run over the same wall interval, and a
// sub-group round's CommT+Idle window accrues as Comp on the parent's
// clock, so the parent's Comp is reduced by the sub-communicators'
// communication time to keep Total() equal to the parent's wall coverage.
func (g *Group) TakeStats() Stats {
	s := g.Parent.TakeStats()
	for _, sub := range []*Comm{g.Row, g.Col} {
		ss := sub.TakeStats()
		s.BytesSent += ss.BytesSent
		s.BytesRecv += ss.BytesRecv
		s.Exchanges += ss.Exchanges
		s.CommT += ss.CommT
		s.Idle += ss.Idle
		overlap := ss.CommT + ss.Idle
		if s.Comp > overlap {
			s.Comp -= overlap
		} else {
			s.Comp = 0
		}
	}
	return s
}
