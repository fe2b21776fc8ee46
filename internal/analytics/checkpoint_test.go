package analytics

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/partition"
)

func checkpointsEqual(a, b *Checkpoint) bool {
	if a.Analytic != b.Analytic || a.Iter != b.Iter || a.Rank != b.Rank ||
		a.Size != b.Size || a.NLoc != b.NLoc || len(a.F64) != len(b.F64) {
		return false
	}
	for i := range a.F64 {
		if math.Float64bits(a.F64[i]) != math.Float64bits(b.F64[i]) {
			return false
		}
	}
	return true
}

// withU32 fills the empty trailing u32 section of an encoded checkpoint, as
// the label-carrying checkpoints of earlier versions of the format did.
func withU32(b []byte, vals ...uint32) []byte {
	b = binary.LittleEndian.AppendUint64(b[:len(b)-8:len(b)-8], uint64(len(vals)))
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

func TestCheckpointEncodeDecodeRoundTrip(t *testing.T) {
	cases := []*Checkpoint{
		{Analytic: "pagerank", Iter: 7, Rank: 2, Size: 4, NLoc: 3,
			F64: []float64{0.25, -1e300, math.Inf(1), math.NaN()}},
		{Analytic: "wpagerank", Iter: 3, Rank: 1, Size: 2, NLoc: 128,
			F64: []float64{1.5, 2.5, 3.5}},
		{Analytic: "", Iter: 0, Rank: 0, Size: 0, NLoc: 0},
	}
	for i, cp := range cases {
		got, err := DecodeCheckpoint(cp.Encode())
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !checkpointsEqual(cp, got) {
			t.Errorf("case %d: round trip mutated the checkpoint:\n%+v\nvs\n%+v", i, cp, got)
		}
		// A file whose u32 section is filled still decodes, to the same
		// checkpoint.
		got, err = DecodeCheckpoint(withU32(cp.Encode(), 9, 0xFFFFFFFF, 7))
		if err != nil {
			t.Fatalf("case %d with a u32 section: %v", i, err)
		}
		if !checkpointsEqual(cp, got) {
			t.Errorf("case %d with a u32 section: decoded %+v, want %+v", i, got, cp)
		}
	}
}

func TestCheckpointDecodeCorrupt(t *testing.T) {
	valid := withU32((&Checkpoint{Analytic: "pagerank", Iter: 4, Rank: 1, Size: 2, NLoc: 3,
		F64: []float64{1, 2, 3}}).Encode(), 4, 5)

	// Every strict prefix must fail cleanly (or be rejected as trailing-
	// garbage-free truncation), never panic or succeed.
	for n := 0; n < len(valid); n++ {
		if _, err := DecodeCheckpoint(valid[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded successfully", n, len(valid))
		}
	}
	// Trailing garbage must be rejected too.
	if _, err := DecodeCheckpoint(append(append([]byte(nil), valid...), 0xEE)); err == nil {
		t.Error("trailing byte accepted")
	}

	mutate := func(name string, fn func(b []byte)) {
		b := append([]byte(nil), valid...)
		fn(b)
		if _, err := DecodeCheckpoint(b); err == nil {
			t.Errorf("%s: corrupt checkpoint decoded successfully", name)
		}
	}
	mutate("bad magic", func(b []byte) { b[0] ^= 0xFF })
	mutate("future version", func(b []byte) { binary.LittleEndian.PutUint32(b[4:8], 99) })
	mutate("name overruns data", func(b []byte) { binary.LittleEndian.PutUint16(b[8:10], 0xFFFF) })
	// A section length far beyond the data must fail before allocating: the
	// f64 count sits after the 10-byte prefix, 8-char name, and 20 bytes of
	// iter/rank/size/nloc.
	mutate("huge f64 section", func(b []byte) {
		binary.LittleEndian.PutUint64(b[10+8+20:], 1<<60)
	})
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	cp := &Checkpoint{Analytic: "pagerank", Iter: 9, Rank: 0, Size: 2, NLoc: 5,
		F64: []float64{0.1, 0.2, 0.3, 0.4, 0.5}}
	path := filepath.Join(t.TempDir(), "rank0.ckpt")
	if err := WriteCheckpointFile(path, cp); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !checkpointsEqual(cp, got) {
		t.Fatalf("file round trip mutated the checkpoint: %+v vs %+v", cp, got)
	}
}

// snapStore retains every checkpoint each rank emits, keyed rank → iter.
type snapStore struct {
	mu sync.Mutex
	by map[int]map[int]*Checkpoint
}

func newSnapStore() *snapStore { return &snapStore{by: make(map[int]map[int]*Checkpoint)} }

func (s *snapStore) sink(cp *Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.by[cp.Rank] == nil {
		s.by[cp.Rank] = make(map[int]*Checkpoint)
	}
	s.by[cp.Rank][cp.Iter] = cp
	return nil
}

// latest returns rank's newest snapshot at or below maxIter (nil if none).
func (s *snapStore) latest(rank, maxIter int) *Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	var best *Checkpoint
	for it, cp := range s.by[rank] {
		if it <= maxIter && (best == nil || it > best.Iter) {
			best = cp
		}
	}
	return best
}

// buildCkptGraph builds the shared deterministic test graph: the same
// (seed, size) always yields the same shards.
func buildCkptGraph(ctx *core.Ctx, seed uint64) (*core.Graph, error) {
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: 256, NumEdges: 2048, Seed: seed}
	pt := partition.NewRandom(spec.NumVertices, ctx.Size(), 3)
	g, _, err := core.Build(ctx, core.SpecSource{Spec: spec}, pt)
	return g, err
}

// runRanks runs body over p in-process ranks and fails the test on error.
func runRanks(t *testing.T, p int, body func(ctx *core.Ctx) error) {
	t.Helper()
	if err := comm.RunLocal(p, func(c *comm.Comm) error {
		return body(core.NewCtx(c, 1))
	}); err != nil {
		t.Fatal(err)
	}
}

// prKinds are the PageRank kinds the checkpoint tests resume: plain, and
// weighted, which snapshots under its own analytic name.
var prKinds = []struct {
	name string
	run  func(ctx *core.Ctx, g *core.Graph, opts PageRankOptions) (*PageRankResult, error)
}{
	{"pagerank", PageRank},
	{"wpagerank", func(ctx *core.Ctx, g *core.Graph, opts PageRankOptions) (*PageRankResult, error) {
		return PageRankWeighted(ctx, g, opts, HashWeights(5, 8))
	}},
}

// TestPageRankCheckpointResumeProperty pins resume(checkpoint(run, k)) ==
// uninterrupted run: one instrumented run captures a snapshot after every
// iteration, then fresh groups resume from a spread of kill points and must
// finish with bitwise-identical scores, across seeds, rank counts and the
// plain and weighted kinds.
func TestPageRankCheckpointResumeProperty(t *testing.T) {
	const iters = 10
	for _, tc := range []struct {
		p    int
		seed uint64
	}{{1, 11}, {2, 12}, {3, 13}, {4, 14}} {
		tc := tc
		t.Run(fmt.Sprintf("p=%d/seed=%d", tc.p, tc.seed), func(t *testing.T) {
			for _, kind := range prKinds {
				golden := make(map[int][]float64)
				store := newSnapStore()
				var mu sync.Mutex
				runRanks(t, tc.p, func(ctx *core.Ctx) error {
					g, err := buildCkptGraph(ctx, tc.seed)
					if err != nil {
						return err
					}
					opts := DefaultPageRank()
					opts.Iterations = iters
					opts.Checkpoint = CheckpointConfig{Every: 1, Sink: store.sink}
					res, err := kind.run(ctx, g, opts)
					if err != nil {
						return err
					}
					mu.Lock()
					golden[ctx.Rank()] = res.Scores
					mu.Unlock()
					return nil
				})

				for _, kill := range []int{1, iters / 2, iters - 1} {
					kill := kill
					resumed := make(map[int][]float64)
					runRanks(t, tc.p, func(ctx *core.Ctx) error {
						g, err := buildCkptGraph(ctx, tc.seed)
						if err != nil {
							return err
						}
						rcp := store.latest(ctx.Rank(), kill)
						if rcp == nil || rcp.Iter != kill || rcp.Analytic != kind.name {
							return fmt.Errorf("rank %d: no %s snapshot at iteration %d", ctx.Rank(), kind.name, kill)
						}
						opts := DefaultPageRank()
						opts.Iterations = iters
						opts.Checkpoint = CheckpointConfig{Resume: rcp}
						res, err := kind.run(ctx, g, opts)
						if err != nil {
							return err
						}
						mu.Lock()
						resumed[ctx.Rank()] = res.Scores
						mu.Unlock()
						return nil
					})
					for r := 0; r < tc.p; r++ {
						if len(golden[r]) != len(resumed[r]) {
							t.Fatalf("%s kill=%d rank %d: %d vs %d scores", kind.name, kill, r, len(golden[r]), len(resumed[r]))
						}
						for v := range golden[r] {
							if math.Float64bits(golden[r][v]) != math.Float64bits(resumed[r][v]) {
								t.Fatalf("%s kill=%d rank %d vertex %d: resumed %v != golden %v",
									kind.name, kill, r, v, resumed[r][v], golden[r][v])
							}
						}
					}
				}
			}
		})
	}
}

// TestCheckpointResumeValidation pins the rejection paths: a snapshot from
// the wrong analytic, rank, or shard shape must fail loudly, not corrupt a
// run.
func TestCheckpointResumeValidation(t *testing.T) {
	runRanks(t, 2, func(ctx *core.Ctx) error {
		g, err := buildCkptGraph(ctx, 41)
		if err != nil {
			return err
		}
		mk := func(mut func(cp *Checkpoint)) CheckpointConfig {
			cp := &Checkpoint{Analytic: "pagerank", Iter: 2,
				Rank: ctx.Rank(), Size: ctx.Size(), NLoc: g.NLoc,
				F64: make([]float64, g.NLoc)}
			mut(cp)
			return CheckpointConfig{Resume: cp}
		}
		opts := DefaultPageRank()
		opts.Checkpoint = mk(func(cp *Checkpoint) { cp.Analytic = "labelprop" })
		if _, err := PageRank(ctx, g, opts); err == nil {
			return errors.New("wrong-analytic checkpoint accepted")
		}
		// Plain and weighted PageRank do not resume from each other's
		// snapshots: the scores mean different things.
		opts.Checkpoint = mk(func(cp *Checkpoint) {})
		if _, err := PageRankWeighted(ctx, g, opts, HashWeights(5, 8)); err == nil {
			return errors.New("weighted run accepted a plain checkpoint")
		}
		opts.Checkpoint = mk(func(cp *Checkpoint) { cp.Analytic = "wpagerank" })
		if _, err := PageRank(ctx, g, opts); err == nil {
			return errors.New("plain run accepted a weighted checkpoint")
		}
		opts.Checkpoint = mk(func(cp *Checkpoint) { cp.Rank = cp.Rank + 1 })
		if _, err := PageRank(ctx, g, opts); err == nil {
			return errors.New("wrong-rank checkpoint accepted")
		}
		opts.Checkpoint = mk(func(cp *Checkpoint) { cp.NLoc++ })
		if _, err := PageRank(ctx, g, opts); err == nil {
			return errors.New("wrong-shape checkpoint accepted")
		}
		// The score section must cover every owned vertex: a short one
		// would resume with its tail at the initial 1/n.
		opts.Checkpoint = mk(func(cp *Checkpoint) { cp.F64 = cp.F64[:len(cp.F64)-1] })
		if _, err := PageRank(ctx, g, opts); err == nil {
			return errors.New("short score section accepted")
		}
		opts.Checkpoint = mk(func(cp *Checkpoint) { cp.F64 = append(cp.F64, 0) })
		if _, err := PageRank(ctx, g, opts); err == nil {
			return errors.New("long score section accepted")
		}
		// The iteration must lie in [0, Iterations]: past the end the
		// snapshot would come back as the answer, and a decoded count of
		// 2^63 or more is a negative int (here 2^64-1, which decodes to -1).
		opts.Checkpoint = mk(func(cp *Checkpoint) { cp.Iter = opts.Iterations + 1 })
		if _, err := PageRank(ctx, g, opts); err == nil {
			return errors.New("checkpoint past the last iteration accepted")
		}
		opts.Checkpoint = mk(func(cp *Checkpoint) {
			b := cp.Encode()
			binary.LittleEndian.PutUint64(b[10+len(cp.Analytic):], math.MaxUint64)
			dec, err := DecodeCheckpoint(b)
			if err != nil {
				panic(err)
			}
			*cp = *dec
		})
		if _, err := PageRank(ctx, g, opts); err == nil {
			return errors.New("negative iteration accepted")
		}
		// Resumption is collective: ranks holding snapshots of different
		// iterations must be rejected on every rank, not silently diverge.
		opts.Checkpoint = mk(func(cp *Checkpoint) { cp.Iter = 2 + ctx.Rank() })
		if _, err := PageRank(ctx, g, opts); err == nil {
			return errors.New("mixed-iteration resume accepted")
		}
		// A well-formed snapshot still resumes after the rejections above.
		opts = DefaultPageRank()
		opts.Iterations = 3
		store := newSnapStore()
		opts.Checkpoint = CheckpointConfig{Every: 1, Sink: store.sink}
		if _, err := PageRank(ctx, g, opts); err != nil {
			return err
		}
		opts.Checkpoint = CheckpointConfig{Resume: store.latest(ctx.Rank(), 2)}
		_, err = PageRank(ctx, g, opts)
		return err
	})
}
