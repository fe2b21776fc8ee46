package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/edge"
)

// generator is what Spec and PlantedSpec have in common.
type generator interface {
	Generate(lo, hi uint64) (edge.List, error)
	GenerateAll() (edge.List, error)
}

// goldenSpecs are the generator pins: the SHA-256 of each spec's full edge
// list as little-endian uint32 words. Any change to a draw, its order or
// the quadrant a draw selects changes a digest, so every graph every
// experiment and benchmark generates stays byte-identical while these hold.
var goldenSpecs = []struct {
	name   string
	spec   generator
	m      uint64
	digest string
}{
	{"rmat-pow2", Spec{Kind: RMAT, NumVertices: 1 << 12, NumEdges: 40000, Seed: 7}, 40000,
		"4e8a8178a48a3cab995db2355d6dad6a2939171501247be340ad3368019dab7e"},
	{"rmat-reject", Spec{Kind: RMAT, NumVertices: 1000, NumEdges: 20000, Seed: 3}, 20000,
		"35b951dd41ed1276cab1688d2d3725abe1f6aeb12562326f2acb0755831bef4e"},
	{"rmat-custom", Spec{Kind: RMAT, NumVertices: 4096, NumEdges: 30000, A: 0.45, B: 0.15, C: 0.25, D: 0.15, Seed: 11}, 30000,
		"13549f2f1fe196d512bd4a99bef7f9617986e8f04f208cfe60eba97aa3b26ffd"},
	{"er", Spec{Kind: ER, NumVertices: 1000, NumEdges: 30000, Seed: 5}, 30000,
		"e4c9b4b19a98d9b726a49a1024051bb98f635015f773ac80bd248543d1ce245c"},
	{"planted", PlantedSpec{NumVertices: 3000, NumEdges: 30000, NumCommunities: 17, IntraProb: 0.7, Seed: 9}, 30000,
		"1c1c075bbf663b7bd953ab500eea4665384973ae4e47def862848db1e918d733"},
	{"wclike", Spec{Kind: RMAT, NumVertices: 5000, NumEdges: 5000 * 36, Seed: 2}, 180000,
		"4d0190a0ac42c3bed4a22ea14e09e7a92bdf040d4e0356fa1ba604b7bde6242c"},
}

// benchSpec is the benchmark's graph: R-MAT 2^16, m = 36n, seed 7.
var benchSpec = Spec{Kind: RMAT, NumVertices: 1 << 16, NumEdges: 36 << 16, Seed: 7}

const benchDigest = "e25bbfb49c2f2011290063fa9e9c66077c34cccec536ab229fa0a82ea790822c"

func digest(l edge.List) string {
	h := sha256.New()
	var buf [4096]byte
	for len(l) > 0 {
		k := min(len(l), len(buf)/4)
		for i, w := range l[:k] {
			binary.LittleEndian.PutUint32(buf[4*i:], w)
		}
		h.Write(buf[:4*k])
		l = l[k:]
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGenerateGolden(t *testing.T) {
	for _, g := range goldenSpecs {
		l, err := g.spec.GenerateAll()
		if err != nil {
			t.Fatal(err)
		}
		if uint64(l.Len()) != g.m {
			t.Fatalf("%s: %d edges, want %d", g.name, l.Len(), g.m)
		}
		if d := digest(l); d != g.digest {
			t.Errorf("%s: digest %s, want %s", g.name, d, g.digest)
		}
	}
}

func TestGenerateGoldenBenchmarkSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("generates 2.4M edges")
	}
	l, err := benchSpec.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	if d := digest(l); d != benchDigest {
		t.Fatalf("benchmark spec digest %s, want %s", d, benchDigest)
	}
}

// TestGenerateGoldenChunkings checks that Generate(lo, hi) concatenated
// over several chunkings reproduces the pinned digests whether the fill
// runs on one goroutine or several.
func TestGenerateGoldenChunkings(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, g := range goldenSpecs {
			for _, p := range []int{1, 2, 3, 7, 64} {
				var cat edge.List
				for r := 0; r < p; r++ {
					lo, hi := ChunkRange(g.m, r, p)
					chunk, err := g.spec.Generate(lo, hi)
					if err != nil {
						t.Fatal(err)
					}
					cat = append(cat, chunk...)
				}
				if d := digest(cat); d != g.digest {
					t.Errorf("%s GOMAXPROCS=%d chunks=%d: digest %s, want %s", g.name, procs, p, d, g.digest)
				}
			}
		}
	}
}

// TestGenerateAllocations pins the fill to one allocation of the final
// list: 8 bytes per edge plus a small constant for the goroutines.
func TestGenerateAllocations(t *testing.T) {
	for _, g := range goldenSpecs {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		l, err := g.spec.GenerateAll()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		got := after.TotalAlloc - before.TotalAlloc
		if limit := 8*g.m + 64<<10; got > limit {
			t.Errorf("%s: GenerateAll allocated %d B for %d edges, want at most %d", g.name, got, l.Len(), limit)
		}
	}
}
