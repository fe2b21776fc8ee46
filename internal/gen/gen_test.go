package gen

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/edge"
)

func TestChunkRangeCoversAll(t *testing.T) {
	for _, m := range []uint64{0, 1, 7, 100, 1000003} {
		for _, p := range []int{1, 2, 3, 8, 16} {
			var prev uint64
			for r := 0; r < p; r++ {
				lo, hi := ChunkRange(m, r, p)
				if lo != prev {
					t.Fatalf("m=%d p=%d r=%d: lo=%d, want %d", m, p, r, lo, prev)
				}
				if hi < lo {
					t.Fatalf("m=%d p=%d r=%d: hi<lo", m, p, r)
				}
				prev = hi
			}
			if prev != m {
				t.Fatalf("m=%d p=%d: chunks end at %d", m, p, prev)
			}
		}
	}
}

func TestGenerateChunkIndependence(t *testing.T) {
	// The concatenation of chunks must equal the monolithic generation, for
	// both generator kinds: this is what makes distributed ingestion
	// deterministic regardless of rank count.
	for _, kind := range []Kind{RMAT, ER} {
		spec := Spec{Kind: kind, NumVertices: 1000, NumEdges: 5000, Seed: 42}
		all, err := spec.GenerateAll()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{2, 3, 7} {
			var cat []uint32
			for r := 0; r < p; r++ {
				lo, hi := ChunkRange(spec.NumEdges, r, p)
				chunk, err := spec.Generate(lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				cat = append(cat, chunk...)
			}
			if len(cat) != len(all) {
				t.Fatalf("%v p=%d: %d words, want %d", kind, p, len(cat), len(all))
			}
			for i := range all {
				if cat[i] != all[i] {
					t.Fatalf("%v p=%d: word %d differs", kind, p, i)
				}
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := Spec{Kind: RMAT, NumVertices: 512, NumEdges: 2048, Seed: 7}
	a, _ := spec.GenerateAll()
	b, _ := spec.GenerateAll()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same spec generated different graphs")
		}
	}
	spec.Seed = 8
	c, _ := spec.GenerateAll()
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds generated identical graphs")
	}
}

func TestBoundsRespected(t *testing.T) {
	for _, n := range []uint32{2, 3, 100, 1000, 1023, 1025} {
		for _, kind := range []Kind{RMAT, ER} {
			spec := Spec{Kind: kind, NumVertices: n, NumEdges: 2000, Seed: 3}
			l, err := spec.GenerateAll()
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Validate(n); err != nil {
				t.Fatalf("%v n=%d: %v", kind, n, err)
			}
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	if err := (Spec{Kind: RMAT, NumVertices: 0, NumEdges: 1}).Validate(); err == nil {
		t.Fatal("zero vertices accepted")
	}
	if err := (Spec{Kind: RMAT, NumVertices: ^uint32(0), NumEdges: 1}).Validate(); err == nil {
		t.Fatal("sentinel vertex count accepted")
	}
	bad := Spec{Kind: RMAT, NumVertices: 4, NumEdges: 1, A: 0.5, B: 0.1, C: 0.1, D: 0.1}
	if err := bad.Validate(); err == nil {
		t.Fatal("non-normalized R-MAT probabilities accepted")
	}
	if _, err := (Spec{Kind: ER, NumVertices: 4, NumEdges: 10}).Generate(5, 20); err == nil {
		t.Fatal("chunk beyond edge count accepted")
	}
}

// TestValidateRejectsBadProbabilities pins the probability checks: NaN
// fails every comparison, so a sum test alone accepts it, and a negative
// probability can still sum to 1.
func TestValidateRejectsBadProbabilities(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name       string
		a, b, c, d float64
	}{
		{"nan", nan, 0.19, 0.19, 0.05},
		{"nan-d", 0.57, 0.19, 0.19, nan},
		{"+inf", inf, 0.19, 0.19, 0.05},
		{"-inf", 0.57, -inf, 0.19, 0.05},
		{"inf-inf", inf, -inf, 0.5, 0.5},
		{"negative", 0.9, -0.2, 0.25, 0.05},
		{"negative-d", 0.6, 0.3, 0.3, -0.2},
		{"above-one", 1.2, -0.1, -0.05, -0.05},
	} {
		s := Spec{Kind: RMAT, NumVertices: 16, NumEdges: 8, A: tc.a, B: tc.b, C: tc.c, D: tc.d}
		if err := s.Validate(); err == nil {
			t.Errorf("%s: probabilities (%v, %v, %v, %v) accepted", tc.name, tc.a, tc.b, tc.c, tc.d)
		}
	}
	for _, p := range []float64{nan, inf, -inf, -0.1, 1.1} {
		s := PlantedSpec{NumVertices: 10, NumEdges: 5, NumCommunities: 2, IntraProb: p}
		if err := s.Validate(); err == nil {
			t.Errorf("planted IntraProb %v accepted", p)
		}
	}
}

// TestEdgeCountBound pins MaxEdges on both spec types (a count above it
// once reached a makeslice panic) and the chunk checks of Generate; a
// one-edge chunk at the very end of the largest spec generates without
// sizing the whole list.
func TestEdgeCountBound(t *testing.T) {
	for _, m := range []uint64{MaxEdges, MaxEdges + 1, ^uint64(0)} {
		specs := map[string]interface {
			Validate() error
			Generate(lo, hi uint64) (edge.List, error)
		}{
			"rmat":    Spec{Kind: RMAT, NumVertices: 100, NumEdges: m, Seed: 1},
			"er":      Spec{Kind: ER, NumVertices: 100, NumEdges: m, Seed: 1},
			"planted": PlantedSpec{NumVertices: 100, NumEdges: m, NumCommunities: 4, IntraProb: 0.5, Seed: 1},
		}
		for name, s := range specs {
			err := s.Validate()
			if m > MaxEdges {
				if err == nil {
					t.Errorf("%s: %d edges accepted", name, m)
				}
				if _, err := s.Generate(0, 1); err == nil {
					t.Errorf("%s: Generate over %d edges accepted", name, m)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s: %d edges rejected: %v", name, m, err)
			}
			if l, err := s.Generate(m-1, m); err != nil || l.Len() != 1 {
				t.Errorf("%s: last edge: %d edges, %v", name, l.Len(), err)
			}
			for _, c := range [][2]uint64{{2, 1}, {m, m + 1}, {0, ^uint64(0)}} {
				if _, err := s.Generate(c[0], c[1]); err == nil {
					t.Errorf("%s: chunk [%d,%d) of %d edges accepted", name, c[0], c[1], m)
				}
			}
		}
	}
}

func TestParseRMAT(t *testing.T) {
	s, err := ParseRMAT(" 4096, 32768 ,9")
	if err != nil {
		t.Fatal(err)
	}
	if want := (Spec{Kind: RMAT, NumVertices: 4096, NumEdges: 32768, Seed: 9}); s != want {
		t.Fatalf("ParseRMAT = %+v, want %+v", s, want)
	}
	for _, bad := range []string{"", "4096,32768", "4096,32768,9,1", "x,1,2", "4294967296,1,2", "4294967295,1,2", "0,1,2", "1,-1,2"} {
		if _, err := ParseRMAT(bad); err == nil {
			t.Errorf("ParseRMAT(%q) accepted", bad)
		}
	}
}

func TestERDegreesRoughlyUniform(t *testing.T) {
	spec := Spec{Kind: ER, NumVertices: 1000, NumEdges: 100000, Seed: 11}
	l, _ := spec.GenerateAll()
	deg := make([]int, spec.NumVertices)
	for i := 0; i < l.Len(); i++ {
		deg[l.Src(i)]++
	}
	mean := float64(spec.NumEdges) / float64(spec.NumVertices) // 100
	var maxDev float64
	for _, d := range deg {
		if dev := math.Abs(float64(d) - mean); dev > maxDev {
			maxDev = dev
		}
	}
	// Poisson(100): max deviation over 1000 draws should stay well under
	// 6 sigma = 60.
	if maxDev > 60 {
		t.Fatalf("ER out-degree deviates %v from mean %v", maxDev, mean)
	}
}

func TestRMATSkewedVsER(t *testing.T) {
	// R-MAT must have a substantially heavier maximum degree than ER at the
	// same size — the property the paper's load-imbalance findings hinge on.
	n := uint32(1 << 12)
	m := uint64(n) * 16
	maxDeg := func(k Kind) int {
		l, err := Spec{Kind: k, NumVertices: n, NumEdges: m, Seed: 5}.GenerateAll()
		if err != nil {
			t.Fatal(err)
		}
		deg := make([]int, n)
		for i := 0; i < l.Len(); i++ {
			deg[l.Src(i)]++
		}
		sort.Ints(deg)
		return deg[n-1]
	}
	rmat, er := maxDeg(RMAT), maxDeg(ER)
	if rmat < 3*er {
		t.Fatalf("R-MAT max degree %d not clearly heavier than ER %d", rmat, er)
	}
}

func TestKindString(t *testing.T) {
	if RMAT.String() != "R-MAT" || ER.String() != "Rand-ER" {
		t.Fatal("Kind strings wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind has empty string")
	}
}

func TestPlantedBoundaries(t *testing.T) {
	s := PlantedSpec{NumVertices: 10000, NumEdges: 1, NumCommunities: 10, IntraProb: 0.9, Seed: 1}
	b := s.Boundaries()
	if len(b) != 11 || b[0] != 0 || b[10] != 10000 {
		t.Fatalf("boundaries: %v", b)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("empty community %d: %v", i-1, b)
		}
	}
	// Heavy tail: first community much larger than last.
	if (b[1] - b[0]) < 3*(b[10]-b[9]) {
		t.Fatalf("community sizes not skewed: %v", b)
	}
	// Membership lookup agrees with boundaries.
	for v := uint32(0); v < 10000; v += 97 {
		c := CommunityOf(b, v)
		if v < b[c] || v >= b[c+1] {
			t.Fatalf("CommunityOf(%d) = %d, boundaries %v", v, c, b)
		}
	}
}

func TestPlantedIntraFraction(t *testing.T) {
	s := PlantedSpec{NumVertices: 5000, NumEdges: 200000, NumCommunities: 20, IntraProb: 0.8, Seed: 2}
	b := s.Boundaries()
	l, err := s.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	intra := 0
	for i := 0; i < l.Len(); i++ {
		if CommunityOf(b, l.Src(i)) == CommunityOf(b, l.Dst(i)) {
			intra++
		}
	}
	frac := float64(intra) / float64(l.Len())
	// 0.8 planted plus background edges that land intra by chance.
	if frac < 0.78 || frac > 0.95 {
		t.Fatalf("intra-community fraction = %v", frac)
	}
}

func TestPlantedChunkIndependence(t *testing.T) {
	s := PlantedSpec{NumVertices: 300, NumEdges: 3000, NumCommunities: 5, IntraProb: 0.7, Seed: 9}
	all, err := s.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	var cat []uint32
	for r := 0; r < 4; r++ {
		lo, hi := ChunkRange(s.NumEdges, r, 4)
		chunk, err := s.Generate(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		cat = append(cat, chunk...)
	}
	for i := range all {
		if cat[i] != all[i] {
			t.Fatal("planted chunks differ from monolithic generation")
		}
	}
}

func TestPlantedValidate(t *testing.T) {
	bad := []PlantedSpec{
		{NumVertices: 0, NumCommunities: 1},
		{NumVertices: 10, NumCommunities: 0},
		{NumVertices: 10, NumCommunities: 20},
		{NumVertices: 10, NumCommunities: 2, IntraProb: 1.5},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("bad spec %d accepted: %+v", i, s)
		}
	}
}

func BenchmarkRMATGenerate(b *testing.B) {
	spec := Spec{Kind: RMAT, NumVertices: 1 << 16, NumEdges: 1 << 20, Seed: 1}
	r := spec.withDefaults().rmat()
	b.SetBytes(8)
	for i := 0; i < b.N; i++ {
		r.edge(uint64(i))
	}
}

func ExampleSpec_Generate() {
	spec := Spec{Kind: ER, NumVertices: 8, NumEdges: 3, Seed: 1}
	l, _ := spec.GenerateAll()
	fmt.Println(l.Len())
	// Output: 3
}
