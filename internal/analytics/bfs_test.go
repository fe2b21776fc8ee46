package analytics

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/seq"
)

// TestBFSCollectivesPerRoot pins a BFS root's communication structure as an
// equality on both layouts, from the transport-round counter.
//
// 1D: one stats reduce before level 0, then per level one frontier exchange
// (the sparse claim round, dense claims or the ghost refresh) and one stats
// reduce, so 1 + 2·levels; a traversal whose plan cache lacks the halo adds
// the one gid round that builds it. The reach and depth come from the
// reduces every rank already holds, so nothing closes the traversal.
//
// 2D: one frontier reduce before level 0, then per level the column expand,
// the row fold and the frontier reduce, plus in adaptive mode the fold
// width's reduce per level and the engine's one width reduce per runner.
func TestBFSCollectivesPerRoot(t *testing.T) {
	for _, tg := range []testGraph{makeTestGraphs(t)[4], rmat4kGraph(t)} {
		runGrid2DConfigs(t, tg, func(ctx *core.Ctx, g1, g2 *core.Graph) error {
			ctx.Plans = core.NewPlans(nil)
			for _, dir := range []Dir{Forward, Backward, Und} {
				for i, root := range []uint32{0, tg.n / 2, 0} {
					ctx.Comm.ResetStats()
					b, err := BFS(ctx, g1, root, dir)
					if err != nil {
						return err
					}
					levels := uint64(b.Depth + 1)
					if i == 2 && b.Traversal.HaloBuilds != 0 {
						return fmt.Errorf("dir=%d root %d: a warm plan rebuilt the halo", dir, root)
					}
					if steps := b.Traversal.PushSteps + b.Traversal.PullSteps; steps != levels {
						return fmt.Errorf("dir=%d root %d: %d steps for %d levels", dir, root, steps, levels)
					}
					want := 1 + 2*levels + b.Traversal.HaloBuilds
					if got := ctx.Comm.TakeStats().Exchanges; got != want {
						return fmt.Errorf("1d dir=%d root %d: %d collectives for %d levels (%d halo builds), want %d",
							dir, root, got, levels, b.Traversal.HaloBuilds, want)
					}
				}
				if !g2.Is2D() {
					continue // p=1 has no grid
				}
				grp := g2.Grid.Group
				grp.ResetStats()
				b, err := BFS(ctx, g2, tg.n/2, dir)
				if err != nil {
					return err
				}
				levels := uint64(b.Depth + 1)
				want := 1 + 3*levels
				if ctx.Traverse == core.TraverseAdaptive {
					want += 1 + levels
				}
				if got := grp.TakeStats().Exchanges; got != want {
					return fmt.Errorf("2d dir=%d: %d collectives for %d levels, want %d", dir, got, levels, want)
				}
			}
			return nil
		})
	}
}

// forgingTransport lets one rank run a kernel honestly through the real
// collectives while rewriting what it sends rank 0: forge sees each
// transport round's message for rank 0 by round number and returns a
// replacement, or nil to send the honest one.
type forgingTransport struct {
	comm.Transport
	round  int
	forged int
	forge  func(round int, msg []byte) []byte
}

func (f *forgingTransport) Exchange(out [][]byte) ([][]byte, time.Duration, error) {
	if f.forge == nil {
		return f.Transport.Exchange(out)
	}
	if m := f.forge(f.round, out[0]); m != nil {
		out[0] = m
		f.forged++
	}
	f.round++
	return f.Transport.Exchange(out)
}

func (f *forgingTransport) Abort() { f.Transport.(interface{ Abort() }).Abort() }

// runForged runs body on two in-process ranks over the vertex-block shards
// of tg, rank 1 forging through forge; see runForgedGroup.
func runForged(tg testGraph, forge func(round int, msg []byte) []byte, body func(ctx *core.Ctx, g *core.Graph) error) ([]error, int) {
	return runForgedGroup(tg, []func(int, []byte) []byte{nil, forge}, body)
}

// runForgedGroup runs body on one in-process rank per entry of forges over
// the vertex-block shards of tg, rank r forging through forges[r] unless it
// is nil, and returns each rank's error and how many messages were forged.
func runForgedGroup(tg testGraph, forges []func(round int, msg []byte) []byte, body func(ctx *core.Ctx, g *core.Graph) error) ([]error, int) {
	p := len(forges)
	trs := comm.NewLocalGroup(p)
	fts := make([]*forgingTransport, p)
	comms := make([]*comm.Comm, p)
	for r := range p {
		fts[r] = &forgingTransport{Transport: trs[r]}
		comms[r] = comm.New(fts[r])
	}
	errs := comm.RunOnAll(comms, func(c *comm.Comm) error {
		ctx := core.NewCtx(c, 1)
		g, _, err := core.Build(ctx, core.ListSource{Edges: tg.edges}, partition.NewVertexBlock(tg.n, p))
		if err != nil {
			return err
		}
		fts[c.Rank()].forge = forges[c.Rank()] // the kernel's rounds, not the build's
		return body(ctx, g)
	})
	forged := 0
	for _, ft := range fts {
		forged += ft.forged
	}
	return errs, forged
}

// forgedPath is a 64-vertex graph whose vertex-block halves meet in one
// edge, 31 -> 32: rank 0 owns 0..31 and ghosts 32, rank 1 owns 32..63 and
// ghosts 31, so every halo segment between them is a single slot and a
// forged pad bit lands past it.
func forgedPath() testGraph {
	var path edge.List
	for v := uint32(1); v < 40; v++ {
		path.Push(v, v+1)
	}
	return testGraph{name: "path", n: 64, edges: path, ref: seq.FromEdges(64, path)}
}

// wantCorruptFrom1 checks that rank 0 failed with a corrupt-message
// CommError naming rank 1 and that every other rank at most saw the group
// abort.
func wantCorruptFrom1(t *testing.T, errs []error) {
	t.Helper()
	var ce *comm.CommError
	if !errors.As(errs[0], &ce) || ce.Kind != comm.KindCorrupt || ce.Peer != 1 {
		t.Fatalf("rank 0 returned %v, want a corrupt-message CommError for peer 1", errs[0])
	}
	for r, err := range errs[1:] {
		if err != nil && comm.Classify(err) != comm.KindAborted {
			t.Fatalf("rank %d: %v", r+1, err)
		}
	}
	t.Log(errs[0])
}

// TestBFSRejectsForgedRounds forges each field of BFS's receive paths on
// the wire. On forgedPath rank 1 reaches nothing rank 0 owns, so its honest
// claim-round segments for rank 0 are bare control words, and the queue
// between the ranks is one slot. Forging the level-0 claim round (transport
// round 2, after the halo's gid round and the first stats reduce) with a
// claim on a slot past the queue, a nonzero payload, the wide bit, or claims
// under a zero count fails the query with a corrupt-message CommError naming
// the forger. Pad bits past a dense segment's slot count, in claims or in
// the ghost refresh, carry nothing: the receiver ignores them and every rank
// gets the honest levels. A forger that sends well-formed but wrong claims
// is out of scope.
func TestBFSRejectsForgedRounds(t *testing.T) {
	tg := forgedPath()
	want := seq.BFS(tg.ref, 1, seq.Forward)
	wantReached, wantDepth := 0, int64(0)
	for _, l := range want {
		if l >= 0 {
			wantReached, wantDepth = wantReached+1, max(wantDepth, l)
		}
	}
	// A dense segment for rank 0 is one word holding its one slot's bit, so
	// it reads 0 or 1 (the stats reduces are wider, and the claim round's
	// bare control word is larger); keep the real bit and set all the others.
	padBits := func(round int, msg []byte) []byte {
		if round < 2 || len(msg) != 8 || binary.LittleEndian.Uint64(msg) > 1 {
			return nil
		}
		return binary.LittleEndian.AppendUint64(nil, binary.LittleEndian.Uint64(msg)|^uint64(1))
	}
	claimed := func(n int) uint64 { return ctlWord(n, ctlNone) }
	forgeries := []struct {
		name   string
		mode   core.TraversalMode
		forge  func(int, []byte) []byte
		honest bool
	}{
		{"slot past the queue", core.TraversePush, forgeRound(2, claimed(1), 1<<32), false},
		{"nonzero payload", core.TraversePush, forgeRound(2, claimed(1), 5), false},
		{"wide claims", core.TraversePush, forgeRound(2, claimed(1)|ctlWide, 0, 0), false},
		{"claims under a zero count", core.TraversePush, forgeRound(2, claimed(0), 0), false},
		{"pad bits in dense claims", core.TraverseAdaptive, padBits, true},
		{"pad bits in the ghost refresh", core.TraverseDense, padBits, true},
	}
	for _, f := range forgeries {
		t.Run(f.name, func(t *testing.T) {
			var dense [2]uint64
			errs, forged := runForged(tg, f.forge, func(ctx *core.Ctx, g *core.Graph) error {
				ctx.Traverse = f.mode
				b, err := BFS(ctx, g, 1, Forward)
				if err != nil {
					return err
				}
				dense[ctx.Rank()] = b.Traversal.DenseExchanges
				global, err := core.Gather(ctx, g, b.Levels)
				if err != nil {
					return err
				}
				for v := range want {
					if int64(global[v]) != want[v] {
						return fmt.Errorf("level[%d] = %d, want %d", v, global[v], want[v])
					}
				}
				if b.Reached != uint64(wantReached) || int64(b.Depth) != wantDepth {
					return fmt.Errorf("reached %d at depth %d, want %d at depth %d", b.Reached, b.Depth, wantReached, wantDepth)
				}
				return nil
			})
			if forged == 0 {
				t.Fatal("the forger never sent its forgery")
			}
			if !f.honest {
				wantCorruptFrom1(t, errs)
				return
			}
			for r, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", r, err)
				}
			}
			if dense[0] == 0 {
				t.Fatal("no dense round ran; the forgery tested nothing")
			}
			t.Logf("%d forged dense segments ignored", forged)
		})
	}
}

// TestSCCTrimRejectsForgedDecrements forges trim's first claim round (the
// one after the halo's gid round) on forgedPath, where rank 1's honest
// segment for rank 0 counts its 32 deaths and carries one claim: vertex
// 31's out-degree (counter 1) down by 1. A zero count, a count beyond what
// either counter of 31 has left (its in-degree is already 0, its
// out-degree 1) or a slot past the one-vertex queue fails the query with a
// corrupt-message CommError naming the forger instead of touching another
// counter. A control word counting deaths whose claim it leaves out changes
// nothing rank 0 acts on (31 is already trimmed), and every rank gets the
// honest answer: all 64 vertices trimmed.
func TestSCCTrimRejectsForgedDecrements(t *testing.T) {
	tg := forgedPath()
	died := ctlWord(32, ctlNone)
	for _, f := range []struct {
		name   string
		seg    []uint64
		honest bool
	}{
		{"zero count", []uint64{died, 0<<1 | 1}, false},
		{"out-count beyond the remaining out-degree", []uint64{died, 2<<1 | 1}, false},
		{"in-count beyond the remaining in-degree", []uint64{died, 1 << 1}, false},
		{"slot out of range", []uint64{died, 1<<32 | 1<<1 | 1}, false},
		{"deaths without their claims", []uint64{ctlWord(40, ctlNone)}, true},
	} {
		t.Run(f.name, func(t *testing.T) {
			errs, forged := runForged(tg, forgeRound(1, f.seg...), func(ctx *core.Ctx, g *core.Graph) error {
				res, err := LargestSCC(ctx, g)
				if err != nil {
					return err
				}
				trimmed, err := comm.Allreduce(ctx.Comm, res.Trimmed, comm.OpSum)
				if err != nil {
					return err
				}
				if res.Size != 0 || trimmed != uint64(tg.n) {
					return fmt.Errorf("largest SCC of %d with %d trimmed, want 0 and %d", res.Size, trimmed, tg.n)
				}
				return nil
			})
			wantForgeryOutcome(t, errs, forged, f.honest)
		})
	}
}

// TestBFSRunnerHonorsJobPolicy runs BFS jobs under alternating traversal
// policies on one warm plan cache. The generation's retained runner must run
// each job under that job's policy, not under the policy of the job that
// built it: every run's TraversalStats equal an uncached run's under the
// same policy (HaloBuilds aside, which only the uncached run pays).
func TestBFSRunnerHonorsJobPolicy(t *testing.T) {
	tg := rmat4kGraph(t)
	modes := []string{"adaptive", "push", "dense"}
	orders := [][]string{
		{"adaptive", "push", "dense", "adaptive"},
		{"adaptive", "dense", "push", "adaptive"},
	}
	for _, p := range []int{2, 3} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			onBothTransports(t, p, func(ctx *core.Ctx) error {
				g, err := buildShard(ctx, tg, partition.Random)
				if err != nil {
					return err
				}
				cold := map[string]obs.TraversalStats{}
				for _, mode := range modes {
					if ctx.Traverse, err = core.ParseTraversalMode(mode); err != nil {
						return err
					}
					b, err := BFS(ctx, g, 0, Forward)
					if err != nil {
						return err
					}
					b.Traversal.HaloBuilds = 0
					cold[mode] = b.Traversal
				}
				ctx.Traverse = core.TraverseAdaptive
				for i, a := range modes {
					for _, b := range modes[i+1:] {
						if cold[a] == cold[b] {
							return fmt.Errorf("policies %s and %s run the same steps here (%+v): the test cannot tell them apart", a, b, cold[a])
						}
					}
				}
				for _, order := range orders {
					ctx.Plans = core.NewPlans(nil)
					for i, mode := range order {
						if _, err := Run(ctx, g, &Job{Analytic: JobBFS, Sources: []uint32{0}, Hybrid: mode}); err != nil {
							return err
						}
						// The runner the job ran on holds its step counters.
						r, err := bfsRunnerFor(ctx, g)
						if err != nil {
							return err
						}
						got := r.eng.stats
						got.HaloBuilds = 0
						if got != cold[mode] {
							return fmt.Errorf("%v, job %d (%s) on a warm runner: %+v, uncached %+v", order, i, mode, got, cold[mode])
						}
					}
				}
				return nil
			})
		})
	}
}
