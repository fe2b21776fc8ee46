package analytics

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/partition"
	"repro/internal/rng"
)

// TestBucketStoreLocalSemantics walks one store through the full lifecycle:
// insert, in-window and overflow filing, decrease-key (with tombstoned
// stale copies), a vertex leaving every bucket, window advance, and
// extraction order.
func TestBucketStoreLocalSemantics(t *testing.T) {
	b := newBucketStore(10, 5, 4) // Δ=5, window of 4 buckets
	b.update(0, 0)                // bucket 0
	b.update(1, 7)                // bucket 1
	b.update(2, 26)               // bucket 5: beyond the window -> overflow
	b.update(3, 12)               // bucket 2
	if b.stats.OverflowSpills != 1 {
		t.Fatalf("OverflowSpills = %d, want 1", b.stats.OverflowSpills)
	}
	b.update(3, 4) // decrease-key into bucket 0; bucket-2 copy is now stale
	if b.stats.Reinserts != 1 {
		t.Fatalf("Reinserts = %d, want 1", b.stats.Reinserts)
	}
	if got := b.localMin(); got != 0 {
		t.Fatalf("localMin = %d, want 0", got)
	}
	b.advance(0)
	got := b.extract(0, nil)
	if len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("extract(0) = %v, want [0 3]", got)
	}
	b.update(1, InfDistance) // vertex 1 leaves; its bucket-1 copy becomes a tombstone
	if got := b.localMin(); got != 5 {
		t.Fatalf("localMin after vertex 1 left = %d, want 5 (overflow)", got)
	}
	b.advance(5) // overflow entry slides into the open window
	got = b.extract(5, got[:0])
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("extract(5) = %v, want [2]", got)
	}
	if got := b.localMin(); got != infBucket {
		t.Fatalf("localMin of drained store = %d", got)
	}
	if b.stats.Extracted != 3 {
		t.Fatalf("Extracted = %d, want 3", b.stats.Extracted)
	}
	if b.stats.Tombstones == 0 {
		t.Fatal("lazy decrease-key left no tombstones")
	}
}

// TestBucketDeterminismAcrossRanks drives the full distributed settle loop
// (nextBucket / extract / decrease-key) over a synthetic priority workload
// and requires the (vertex -> bucket at extraction) map to be identical at
// every rank count: the global bucket sequence is an Allreduced minimum and
// the decrease schedule is a pure function of (vertex, settled bucket), so
// ownership must not matter.
func TestBucketDeterminismAcrossRanks(t *testing.T) {
	const n = 96
	prio := func(v uint32) uint64 { return rng.Mix64(0xDECAF^uint64(v)) % 40 }
	// At settled bucket k == dropAt(u), u's priority falls to half (if that
	// is a decrease).
	dropAt := func(u uint32) uint64 { return rng.Mix64(0xBEEF^uint64(u)) % 20 }

	run := func(p int) ([]uint64, error) {
		out := make([]uint64, n) // extraction bucket per vertex; one writer each
		var mu sync.Mutex
		err := comm.RunLocal(p, func(c *comm.Comm) error {
			ctx := core.NewCtx(c, 1)
			rank := ctx.Rank()
			var owned []uint32
			for v := uint32(0); v < n; v++ {
				if int(v)%p == rank {
					owned = append(owned, v)
				}
			}
			b := newBucketStore(len(owned), 2, 4)
			cur := make([]uint64, len(owned))
			done := make([]bool, len(owned))
			for i, v := range owned {
				cur[i] = prio(v)
				b.update(uint32(i), cur[i])
			}
			var ext []uint32
			for {
				k, ok, err := b.nextBucket(ctx)
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				ext = b.extract(k, ext[:0])
				for _, i := range ext {
					done[i] = true
					mu.Lock()
					out[owned[i]] = k
					mu.Unlock()
				}
				// Deterministic decrease schedule keyed on the global k.
				for i, v := range owned {
					if done[i] || dropAt(v) != k {
						continue
					}
					if nd := cur[i] / 2; nd < cur[i] {
						cur[i] = nd
						b.update(uint32(i), nd)
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	}

	ref, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 3, 4} {
		got, err := run(p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for v := range ref {
			if got[v] != ref[v] {
				t.Fatalf("p=%d: vertex %d extracted in bucket %d, want %d (p=1)", p, v, got[v], ref[v])
			}
		}
	}
}

// TestBucketStoreStress churns a store against a map-based reference model
// with random interleaved updates, departures and extractions.
func TestBucketStoreStress(t *testing.T) {
	const n = 200
	seed := uint64(0x5EED)
	b := newBucketStore(n, 3, 8)
	model := make(map[uint32]uint64) // vertex -> priority (present = queued)
	inserted := make([]bool, n)
	for step := 0; step < 2000; step++ {
		seed = rng.Mix64(seed)
		v := uint32(seed % n)
		seed = rng.Mix64(seed)
		switch seed % 3 {
		case 0, 1: // update, at or above the floor like real callers
			seed = rng.Mix64(seed)
			d := b.cur*3 + seed%60
			if old, ok := model[v]; !ok || d < old {
				model[v] = d
				b.update(v, d)
				inserted[v] = true
			}
		case 2:
			if inserted[v] {
				delete(model, v)
				b.update(v, InfDistance)
			}
		}
		if step%97 == 0 {
			k := b.localMin()
			wantMin := infBucket
			for _, d := range model {
				if id := d / 3; id < wantMin {
					wantMin = id
				}
			}
			if k != wantMin {
				t.Fatalf("step %d: localMin = %d, model %d", step, k, wantMin)
			}
			if k == infBucket {
				continue
			}
			b.advance(k)
			got := b.extract(k, nil)
			want := map[uint32]bool{}
			for u, d := range model {
				if d/3 == k {
					want[u] = true
				}
			}
			if len(got) != len(want) {
				t.Fatalf("step %d: extract(%d) = %v, model has %d members", step, k, got, len(want))
			}
			for _, u := range got {
				if !want[u] {
					t.Fatalf("step %d: extract(%d) returned %d not in model", step, k, u)
				}
				delete(model, u)
			}
		}
	}
	if b.stats.Extracted == 0 || b.stats.Tombstones == 0 {
		t.Fatalf("stress left trivial stats: %+v", b.stats)
	}
}

// TestBucketOverflowOneCopyPerVertex pins the overflow list's size with a
// count, driving the store the way a Δ=1 schedule over a wide priority range
// does: every vertex starts far beyond the 64-bucket window and has its key
// decreased many times over before the window reaches it. Every such move
// is an overflow spill, but none needs a second physical copy, and an
// extracted vertex never comes back — so the list never outgrows the
// vertices, and each one is still extracted exactly once, in bucket order.
func TestBucketOverflowOneCopyPerVertex(t *testing.T) {
	const n, moves = 2048, 12
	b := newBucketStore(n, 1, bucketWindow)
	prio := make([]uint64, n)
	// The list only grows inside update, so its peak shows right after one.
	file := func(v int, d uint64) {
		prio[v] = d
		b.update(uint32(v), d)
		if len(b.overflow) > n {
			t.Fatalf("overflow holds %d entries for %d vertices (%d spills)", len(b.overflow), n, b.stats.OverflowSpills)
		}
	}
	for v := range prio {
		file(v, 4*bucketWindow+rng.Mix64(0xF00D^uint64(v))%(1<<14))
	}
	floor := uint64(0)
	lower := func(step uint64) {
		for v := range prio {
			if d := prio[v] - rng.Mix64(step<<32|uint64(v))%bucketWindow; prio[v] != InfDistance && d >= floor+2*bucketWindow {
				file(v, d)
			}
		}
	}
	for m := uint64(0); m < moves; m++ {
		lower(m)
	}
	var ext []uint32
	extracted := 0
	for step := uint64(moves); ; step++ {
		k := b.localMin()
		if k == infBucket {
			break
		}
		if k < floor {
			t.Fatalf("bucket %d settled after %d", k, floor)
		}
		floor = k
		b.advance(k)
		ext = b.extract(k, ext[:0])
		for _, v := range ext {
			if prio[v] != k {
				t.Fatalf("vertex %d extracted from bucket %d, filed at %d", v, k, prio[v])
			}
			prio[v] = InfDistance
		}
		extracted += len(ext)
		if step%16 == 0 {
			lower(step)
		}
	}
	if extracted != n {
		t.Fatalf("extracted %d of %d vertices", extracted, n)
	}
	if b.stats.OverflowSpills <= 2*n {
		t.Fatalf("only %d overflow spills for %d vertices: the schedule does not churn beyond the window", b.stats.OverflowSpills, n)
	}
}

// TestBucketClaimRejectsForgedVertex drives the sparse claim exchange's
// receive path with a forged stream: rank 1 plays the two aligned rounds by
// hand and names a vertex rank 0 has never heard of, then one rank 0 only
// holds as a ghost. Both must fail the exchange with an error; the unknown
// id used to reach MustLocalID and panic the rank.
func TestBucketClaimRejectsForgedVertex(t *testing.T) {
	// Vertex-block over 64 vertices: rank 0 owns 0..31 and ghosts 32 through
	// the 31-32 edge; 63 is isolated, so rank 0 has no local id for it.
	var path edge.List
	for v := uint32(0); v < 40; v++ {
		path.Push(v, v+1)
	}
	tg := testGraph{name: "path", n: 64, edges: path}
	for _, forged := range []uint32{63, 32} {
		err := comm.RunLocal(2, func(c *comm.Comm) error {
			ctx := core.NewCtx(c, 1)
			ctx.Traverse.Mode = core.TraversePush // sparse stream, no representation reduce
			g, err := buildShard(ctx, tg, partition.VertexBlock)
			if err != nil {
				return err
			}
			if c.Rank() == 1 {
				if _, _, err := comm.Alltoallv(c, []uint32{forged}, []int{1, 0}); err != nil {
					return err
				}
				_, _, err := comm.Alltoallv(c, []uint64{7}, []int{1, 0})
				return err
			}
			bc := newBucketComm(newFrontierEngine(ctx, g))
			err = bc.exchange(ctx, nil, nil, func(v uint32, x uint64) {
				t.Errorf("forged claim reached vertex %d with payload %d", v, x)
			})
			if err == nil || !strings.Contains(err.Error(), "unowned vertex") {
				return fmt.Errorf("exchange returned %v, want the unowned-vertex error", err)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("forged vertex %d: %v", forged, err)
		}
	}
}
