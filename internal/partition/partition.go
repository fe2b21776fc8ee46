// Package partition implements the paper's three one-dimensional
// partitioning strategies (§III-B): vertex-block (each task gets ~n/p
// vertices in natural order), edge-block (contiguous vertex ranges holding
// ~m/p edges each), and random (each vertex hashed to a task).
//
// A partitioner answers one question — which rank owns a global vertex —
// deterministically and identically on every rank, with no communication.
// Block strategies answer it by binary search over p+1 boundaries; random
// answers it by hashing. Balance statistics used throughout the evaluation
// (vertex/edge imbalance, edge cut) live here too.
package partition

import (
	"fmt"
	"sort"

	"repro/internal/edge"
	"repro/internal/rng"
)

// Kind names a partitioning strategy.
type Kind int

// The strategies of §III-B. The paper's labels for the Web Crawl runs are
// WC-np (vertex block), WC-mp (edge block), and WC-rand (random).
const (
	VertexBlock Kind = iota
	EdgeBlock
	Random
)

func (k Kind) String() string {
	switch k {
	case VertexBlock:
		return "vertex-block"
	case EdgeBlock:
		return "edge-block"
	case Random:
		return "random"
	case PuLPKind:
		return "pulp"
	case Grid2D:
		return "2d"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// KindUsage is the shared help text for the -partition flag registered by
// every binary (repro, tcprank, graphd), so the accepted
// spellings cannot drift between them.
const KindUsage = "partitioning: np|vertex-block, mp|edge-block, rand|random, pulp, 2d|grid|checkerboard"

// ParseKind converts a flag string (np|mp|rand|2d, or the long names) to a
// Kind. Unknown spellings fail with the full list of valid kinds so every
// binary's -partition flag fails fast with the same message.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "np", "vertex", "vertex-block":
		return VertexBlock, nil
	case "mp", "edge", "edge-block":
		return EdgeBlock, nil
	case "rand", "random":
		return Random, nil
	case "pulp":
		return PuLPKind, nil
	case "2d", "grid", "checkerboard":
		return Grid2D, nil
	default:
		return 0, fmt.Errorf("partition: unknown kind %q (%s)", s, KindUsage)
	}
}

// Flag is a flag.Value carrying a Kind, so every binary shares one
// ParseKind-driven -partition spec instead of hand-rolled string flags.
type Flag struct{ Kind Kind }

// String implements flag.Value.
func (f *Flag) String() string { return f.Kind.String() }

// Set implements flag.Value via ParseKind.
func (f *Flag) Set(s string) error {
	k, err := ParseKind(s)
	if err != nil {
		return err
	}
	f.Kind = k
	return nil
}

// Partitioner maps global vertices to owning ranks. Implementations are
// immutable and safe for concurrent use.
type Partitioner interface {
	// Kind identifies the strategy.
	Kind() Kind
	// NumRanks returns the number of ranks p.
	NumRanks() int
	// NumVertices returns the global vertex count n.
	NumVertices() uint32
	// Owner returns the rank owning global vertex v, in [0, p).
	Owner(v uint32) int
	// Owned returns rank r's owned global vertices in ascending order.
	Owned(r int) []uint32
	// OwnedCount returns len(Owned(r)) without materializing it.
	OwnedCount(r int) uint32
}

// Block is a contiguous-range partitioner: rank r owns global vertices
// [bounds[r], bounds[r+1]). It implements both the vertex-block and
// edge-block strategies, differing only in how the boundaries were chosen.
type Block struct {
	kind   Kind
	bounds []uint32
}

// NewVertexBlock splits [0, n) into p near-equal vertex ranges.
func NewVertexBlock(n uint32, p int) *Block {
	bounds := make([]uint32, p+1)
	q, r := uint64(n)/uint64(p), uint64(n)%uint64(p)
	acc := uint64(0)
	for i := 0; i < p; i++ {
		bounds[i] = uint32(acc)
		acc += q
		if uint64(i) < r {
			acc++
		}
	}
	bounds[p] = n
	return &Block{kind: VertexBlock, bounds: bounds}
}

// NewEdgeBlockFromBounds wraps precomputed edge-balanced boundaries
// (bounds[0] must be 0 and bounds[p] must be n). Use EdgeBlockBounds to
// compute boundaries from a degree array, or the distributed computation in
// the core package at scale.
func NewEdgeBlockFromBounds(bounds []uint32) (*Block, error) {
	if len(bounds) < 2 || bounds[0] != 0 {
		return nil, fmt.Errorf("partition: bad bounds %v", bounds)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] < bounds[i-1] {
			return nil, fmt.Errorf("partition: decreasing bounds %v", bounds)
		}
	}
	return &Block{kind: EdgeBlock, bounds: bounds}, nil
}

// EdgeBlockBounds computes edge-block boundaries from per-vertex degrees
// (in + out, the per-vertex work proxy): rank r's range is chosen so each
// range carries approximately sum(degrees)/p degree mass.
func EdgeBlockBounds(degrees []uint64, p int) []uint32 {
	n := len(degrees)
	var total uint64
	for _, d := range degrees {
		total += d
	}
	bounds := make([]uint32, p+1)
	bounds[p] = uint32(n)
	target := func(r int) uint64 {
		// Cut points at r/p of the total mass, computed without float
		// rounding drift.
		return total * uint64(r) / uint64(p)
	}
	var acc uint64
	r := 1
	for v := 0; v < n && r < p; v++ {
		acc += degrees[v]
		for r < p && acc >= target(r) {
			bounds[r] = uint32(v + 1)
			r++
		}
	}
	for ; r < p; r++ {
		bounds[r] = uint32(n)
	}
	return bounds
}

// Kind implements Partitioner.
func (b *Block) Kind() Kind { return b.kind }

// NumRanks implements Partitioner.
func (b *Block) NumRanks() int { return len(b.bounds) - 1 }

// NumVertices implements Partitioner.
func (b *Block) NumVertices() uint32 { return b.bounds[len(b.bounds)-1] }

// Bounds returns the boundary array (rank r owns [Bounds()[r],
// Bounds()[r+1])). The slice must not be modified.
func (b *Block) Bounds() []uint32 { return b.bounds }

// Owner implements Partitioner by binary search over the boundaries.
func (b *Block) Owner(v uint32) int {
	return sort.Search(b.NumRanks(), func(i int) bool { return b.bounds[i+1] > v })
}

// Owned implements Partitioner.
func (b *Block) Owned(r int) []uint32 {
	lo, hi := b.bounds[r], b.bounds[r+1]
	out := make([]uint32, 0, hi-lo)
	for v := lo; v < hi; v++ {
		out = append(out, v)
	}
	return out
}

// OwnedCount implements Partitioner.
func (b *Block) OwnedCount(r int) uint32 { return b.bounds[r+1] - b.bounds[r] }

// Rand hashes each vertex to a rank, giving the balanced-but-local-less
// strategy of the paper's WC-rand runs.
type Rand struct {
	n    uint32
	p    int
	seed uint64
}

// NewRandom returns a random partitioner over n vertices and p ranks.
// Distinct seeds give distinct assignments; all ranks must use the same
// seed.
func NewRandom(n uint32, p int, seed uint64) *Rand {
	return &Rand{n: n, p: p, seed: seed}
}

// Kind implements Partitioner.
func (r *Rand) Kind() Kind { return Random }

// NumRanks implements Partitioner.
func (r *Rand) NumRanks() int { return r.p }

// NumVertices implements Partitioner.
func (r *Rand) NumVertices() uint32 { return r.n }

// Owner implements Partitioner.
func (r *Rand) Owner(v uint32) int {
	return int(rng.Mix64(r.seed^uint64(v)) % uint64(r.p))
}

// Owned implements Partitioner. It scans the full vertex range; random
// partitions have no compact description of their owned sets (the reason
// the paper's Table II keeps explicit ghost-owner arrays for this
// strategy).
func (r *Rand) Owned(rank int) []uint32 {
	out := make([]uint32, 0, uint64(r.n)/uint64(r.p)+1)
	for v := uint32(0); v < r.n; v++ {
		if r.Owner(v) == rank {
			out = append(out, v)
		}
	}
	return out
}

// OwnedCount implements Partitioner.
func (r *Rand) OwnedCount(rank int) uint32 {
	var c uint32
	for v := uint32(0); v < r.n; v++ {
		if r.Owner(v) == rank {
			c++
		}
	}
	return c
}

// New constructs a partitioner of the given kind. Edge-block partitioning
// requires per-vertex degrees; pass nil for the other kinds.
func New(kind Kind, n uint32, p int, seed uint64, degrees []uint64) (Partitioner, error) {
	if p <= 0 {
		return nil, fmt.Errorf("partition: %d ranks", p)
	}
	switch kind {
	case VertexBlock:
		return NewVertexBlock(n, p), nil
	case EdgeBlock:
		if degrees == nil {
			return nil, fmt.Errorf("partition: edge-block requires degrees")
		}
		if len(degrees) != int(n) {
			return nil, fmt.Errorf("partition: %d degrees for %d vertices", len(degrees), n)
		}
		bounds := EdgeBlockBounds(degrees, p)
		return NewEdgeBlockFromBounds(bounds)
	case Random:
		return NewRandom(n, p, seed), nil
	case Grid2D:
		return NewGrid(n, p), nil
	default:
		return nil, fmt.Errorf("partition: unknown kind %v", kind)
	}
}

// Stats summarizes partition quality for an edge list: the paper's §III-B
// balance and cut measures.
type Stats struct {
	// MaxVertexImbalance is max_r n_r / (n/p); 1.0 is perfect.
	MaxVertexImbalance float64
	// MaxEdgeImbalance is max_r m_r / (m/p) counting each edge at its
	// source's owner; 1.0 is perfect.
	MaxEdgeImbalance float64
	// CutFraction is the fraction of edges whose endpoints are owned by
	// different ranks (the aggregate edge cut over m).
	CutFraction float64
}

// Measure computes Stats for edges under pt.
func Measure(pt Partitioner, edges edge.List) Stats {
	p := pt.NumRanks()
	nPer := make([]uint64, p)
	for r := 0; r < p; r++ {
		nPer[r] = uint64(pt.OwnedCount(r))
	}
	mPer := make([]uint64, p)
	var cut uint64
	for i := 0; i < edges.Len(); i++ {
		so := pt.Owner(edges.Src(i))
		do := pt.Owner(edges.Dst(i))
		mPer[so]++
		if so != do {
			cut++
		}
	}
	var s Stats
	n := uint64(pt.NumVertices())
	m := uint64(edges.Len())
	for r := 0; r < p; r++ {
		if n > 0 {
			if im := float64(nPer[r]) * float64(p) / float64(n); im > s.MaxVertexImbalance {
				s.MaxVertexImbalance = im
			}
		}
		if m > 0 {
			if im := float64(mPer[r]) * float64(p) / float64(m); im > s.MaxEdgeImbalance {
				s.MaxEdgeImbalance = im
			}
		}
	}
	if m > 0 {
		s.CutFraction = float64(cut) / float64(m)
	}
	return s
}
