// Package gen generates the synthetic graphs of the paper's evaluation:
// R-MAT graphs (skewed, power-law-like degree distributions standing in for
// the Web Data Commons crawl) and Erdős–Rényi random graphs (the paper's
// Rand-ER), at arbitrary scale.
//
// Generation is embarrassingly parallel and fully deterministic: edge i of
// a Spec is a pure function of (Spec.Seed, i), so any rank can generate any
// contiguous chunk of the edge list and the resulting graph is identical
// for every rank count. This mirrors how the paper's synthetic inputs are
// produced independently of the machine configuration.
package gen

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"repro/internal/edge"
	"repro/internal/rng"
)

// Kind selects a generator family.
type Kind int

// Generator families.
const (
	// RMAT is the recursive-matrix generator of Chakrabarti et al. (the
	// paper's R-MAT inputs, citation [3]).
	RMAT Kind = iota
	// ER is the Erdős–Rényi G(n, m) uniform random multigraph (the
	// paper's Rand-ER inputs).
	ER
)

func (k Kind) String() string {
	switch k {
	case RMAT:
		return "R-MAT"
	case ER:
		return "Rand-ER"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Spec describes a synthetic graph. The zero value is not useful; fill in
// at least Kind, NumVertices, and NumEdges. Like the paper's inputs, the
// generated list may contain self-loops and duplicate edges; the
// construction pipeline takes graphs "as given in the original source".
type Spec struct {
	Kind        Kind
	NumVertices uint32
	NumEdges    uint64
	// A, B, C, D are the R-MAT quadrant probabilities; if all zero the
	// Graph500 defaults (0.57, 0.19, 0.19, 0.05) are used. Ignored for ER.
	A, B, C, D float64
	Seed       uint64
}

// withDefaults returns the spec with R-MAT parameters defaulted.
func (s Spec) withDefaults() Spec {
	if s.A == 0 && s.B == 0 && s.C == 0 && s.D == 0 {
		s.A, s.B, s.C, s.D = 0.57, 0.19, 0.19, 0.05
	}
	return s
}

// Validate reports whether the spec is generatable.
func (s Spec) Validate() error {
	if s.NumVertices == 0 {
		return fmt.Errorf("gen: zero vertices")
	}
	if s.NumVertices == ^uint32(0) {
		return fmt.Errorf("gen: vertex count reserves the sentinel id")
	}
	if s.Kind != RMAT {
		return nil
	}
	d := s.withDefaults()
	// Each probability in [0, 1] (which also rules out NaN and ±Inf) makes
	// the cumulative thresholds a draw is counted against monotone.
	for _, p := range [4]float64{d.A, d.B, d.C, d.D} {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("gen: R-MAT probability %v outside [0,1]", p)
		}
	}
	if sum := d.A + d.B + d.C + d.D; sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("gen: R-MAT probabilities sum to %v", sum)
	}
	return nil
}

// scale returns the number of R-MAT recursion levels: the smallest s with
// 2^s >= NumVertices.
func (s Spec) scale() uint {
	lvl := uint(0)
	for (uint64(1) << lvl) < uint64(s.NumVertices) {
		lvl++
	}
	return lvl
}

// Generate produces edges [lo, hi) of the spec's edge list. Each rank of a
// distributed run calls Generate with its chunk; the concatenation over
// ranks is independent of the chunking.
func (s Spec) Generate(lo, hi uint64) (edge.List, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if hi > s.NumEdges || lo > hi {
		return nil, fmt.Errorf("gen: chunk [%d,%d) outside %d edges", lo, hi, s.NumEdges)
	}
	s = s.withDefaults()
	if s.Kind == ER {
		n := uint64(s.NumVertices)
		return fill(lo, hi, func(i uint64) (src, dst uint32) {
			x := rng.NewXoshiro256(s.Seed, i)
			return uint32(x.Uint64n(n)), uint32(x.Uint64n(n))
		}), nil
	}
	return fill(lo, hi, s.rmat().edge), nil
}

// GenerateAll produces the complete edge list.
func (s Spec) GenerateAll() (edge.List, error) {
	return s.Generate(0, s.NumEdges)
}

// rmatParams is an R-MAT spec reduced to what a draw needs: the recursion
// depth and the cumulative quadrant thresholds A, A+B and A+B+C.
type rmatParams struct {
	seed       uint64
	n          uint32
	lvl        uint
	t1, t2, t3 float64
}

// rmat reduces a defaulted spec to its R-MAT parameters.
func (s Spec) rmat() rmatParams {
	return rmatParams{seed: s.Seed, n: s.NumVertices, lvl: s.scale(),
		t1: s.A, t2: s.A + s.B, t3: s.A + s.B + s.C}
}

// edge derives R-MAT edge i deterministically from (seed, i).
func (r rmatParams) edge(i uint64) (src, dst uint32) {
	x := rng.NewXoshiro256(r.seed, i)
	for {
		// Each level's draw picks a quadrant: the number of thresholds it
		// reaches. The thresholds are monotone (Validate rejects negative
		// probabilities), so the count is exactly the quadrant a chain of
		// draw < A, < A+B, < A+B+C tests would pick, without the branches.
		// Quadrant 1 sets v's bit, 2 sets u's, 3 both. The & 31 never
		// changes l (lvl <= 32); it spares the oversized-shift check.
		var u, v uint32
		for l := uint(0); l < r.lvl; l++ {
			f := x.Float64()
			q := b2u(f >= r.t1) + b2u(f >= r.t2) + b2u(f >= r.t3)
			v |= (q & 1) << (l & 31)
			u |= (q >> 1) << (l & 31)
		}
		if u < r.n && v < r.n {
			return u, v
		}
		// Rejection keeps the distribution over the valid corner unskewed
		// when NumVertices is not a power of two.
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// minChunk is the fewest edges one goroutine of a fill is given: below it
// starting the goroutine costs more than generating the edges.
const minChunk = 1 << 14

// fill allocates the list for edges [lo, hi) once and writes edge i's
// endpoints, edgeAt(i), in place. Above minChunk edges per goroutine the
// range is split with ChunkRange over GOMAXPROCS goroutines, each writing
// its own disjoint slice; since edge i depends on i alone, the list is the
// same however it is split.
func fill(lo, hi uint64, edgeAt func(i uint64) (src, dst uint32)) edge.List {
	m := hi - lo
	out := make(edge.List, 2*m)
	workers := int(min(uint64(runtime.GOMAXPROCS(0)), m/minChunk))
	if workers <= 1 {
		fillRange(out, lo, edgeAt)
		return out
	}
	var wg sync.WaitGroup
	for w := range workers {
		a, b := ChunkRange(m, w, workers)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fillRange(out[2*a:2*b], lo+a, edgeAt)
		}()
	}
	wg.Wait()
	return out
}

// fillRange writes edges first, first+1, ... into out, two words each.
func fillRange(out []uint32, first uint64, edgeAt func(i uint64) (src, dst uint32)) {
	for k := 0; k+1 < len(out); k += 2 {
		out[k], out[k+1] = edgeAt(first)
		first++
	}
}

// ChunkRange splits m edges into nranks contiguous chunks and returns the
// half-open chunk for rank, balanced to within one edge.
func ChunkRange(m uint64, rank, nranks int) (lo, hi uint64) {
	q := m / uint64(nranks)
	r := m % uint64(nranks)
	lo = uint64(rank)*q + min(uint64(rank), r)
	hi = lo + q
	if uint64(rank) < r {
		hi++
	}
	return lo, hi
}

// WCLike returns a Spec resembling the paper's Web Crawl at a reduced
// scale: an R-MAT graph with the crawl's average degree of 36 and heavy
// degree skew. scaleN is the vertex count to use.
func WCLike(scaleN uint32, seed uint64) Spec {
	return Spec{Kind: RMAT, NumVertices: scaleN, NumEdges: uint64(scaleN) * 36, Seed: seed}
}

// ParseRMAT parses the "n,m,seed" form the commands take for a synthetic
// R-MAT input with the Graph500 quadrant probabilities, and validates it.
func ParseRMAT(text string) (Spec, error) {
	parts := strings.Split(text, ",")
	if len(parts) != 3 {
		return Spec{}, fmt.Errorf("gen: R-MAT spec %q: want n,m,seed", text)
	}
	n, err1 := strconv.ParseUint(strings.TrimSpace(parts[0]), 10, 32)
	m, err2 := strconv.ParseUint(strings.TrimSpace(parts[1]), 10, 64)
	seed, err3 := strconv.ParseUint(strings.TrimSpace(parts[2]), 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return Spec{}, fmt.Errorf("gen: R-MAT spec %q: want numeric n,m,seed", text)
	}
	s := Spec{Kind: RMAT, NumVertices: uint32(n), NumEdges: m, Seed: seed}
	return s, s.Validate()
}
