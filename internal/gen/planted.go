package gen

import (
	"fmt"
	"sort"

	"repro/internal/edge"
	"repro/internal/rng"
)

// PlantedSpec generates a directed graph with planted heavy-tailed
// communities blended with a uniform background — a controllable stand-in
// for the crawl's community structure used by the Table V / Figure 5
// experiments. Community k (of NumCommunities) has size proportional to
// 1/(k+1), giving the few-giants-many-dwarfs profile Meusel et al. report
// for the web.
type PlantedSpec struct {
	NumVertices    uint32
	NumEdges       uint64
	NumCommunities int
	// IntraProb is the probability an edge stays inside its source's
	// community; the remainder lands uniformly at random.
	IntraProb float64
	Seed      uint64
}

// Validate reports whether the spec is generatable.
func (s PlantedSpec) Validate() error {
	if s.NumVertices == 0 || s.NumCommunities <= 0 {
		return fmt.Errorf("gen: planted spec needs vertices and communities")
	}
	if uint32(s.NumCommunities) > s.NumVertices {
		return fmt.Errorf("gen: more communities (%d) than vertices (%d)", s.NumCommunities, s.NumVertices)
	}
	if !(s.IntraProb >= 0 && s.IntraProb <= 1) { // also rejects NaN
		return fmt.Errorf("gen: IntraProb %v outside [0,1]", s.IntraProb)
	}
	return nil
}

// Boundaries returns the community boundaries: community k owns vertices
// [b[k], b[k+1]). Sizes follow a harmonic (Zipf-like) profile.
func (s PlantedSpec) Boundaries() []uint32 {
	k := s.NumCommunities
	weights := make([]float64, k)
	total := 0.0
	for i := range weights {
		weights[i] = 1 / float64(i+1)
		total += weights[i]
	}
	b := make([]uint32, k+1)
	acc := 0.0
	for i := 0; i < k; i++ {
		b[i] = uint32(acc / total * float64(s.NumVertices))
		acc += weights[i]
	}
	b[k] = s.NumVertices
	// Guarantee every community is non-empty by nudging degenerate
	// boundaries forward.
	for i := 1; i <= k; i++ {
		if b[i] <= b[i-1] {
			b[i] = b[i-1] + 1
		}
	}
	if b[k] > s.NumVertices {
		// Tiny vertex counts with many communities can overflow the nudge;
		// clamp and let trailing communities be empty rather than invalid.
		for i := k; i > 0 && b[i] > s.NumVertices; i-- {
			b[i] = s.NumVertices
		}
	}
	return b
}

// CommunityOf returns the planted community of v given boundaries b.
func CommunityOf(b []uint32, v uint32) int {
	return sort.Search(len(b)-1, func(i int) bool { return b[i+1] > v })
}

// Generate produces edges [lo, hi) of the planted graph; like Spec.Generate
// it is chunk-independent and deterministic.
func (s PlantedSpec) Generate(lo, hi uint64) (edge.List, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if hi > s.NumEdges || lo > hi {
		return nil, fmt.Errorf("gen: chunk [%d,%d) outside %d edges", lo, hi, s.NumEdges)
	}
	b := s.Boundaries()
	n := uint64(s.NumVertices)
	return fill(lo, hi, func(i uint64) (src, dst uint32) {
		x := rng.NewXoshiro256(s.Seed, i)
		src = uint32(x.Uint64n(n))
		if x.Float64() >= s.IntraProb {
			return src, uint32(x.Uint64n(n))
		}
		c := CommunityOf(b, src)
		span := uint64(b[c+1] - b[c])
		if span == 0 {
			span = 1
		}
		return src, b[c] + uint32(x.Uint64n(span))
	}), nil
}

// GenerateAll produces the complete edge list.
func (s PlantedSpec) GenerateAll() (edge.List, error) {
	return s.Generate(0, s.NumEdges)
}
