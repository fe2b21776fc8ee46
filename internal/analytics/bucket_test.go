package analytics

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/rng"
)

// TestBucketStoreLocalSemantics walks one store through the full lifecycle:
// insert, in-window and overflow filing, decrease-key (with tombstoned
// stale copies), remove, window advance, and extraction order.
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
	b.remove(1) // peel vertex 1; its bucket-1 copy becomes a tombstone
	if got := b.localMin(); got != 5 {
		t.Fatalf("localMin after remove = %d, want 5 (overflow)", got)
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

// TestBucketStoreClampsToFloor pins the k-core-critical clamp: a priority
// below the settled floor files into the floor bucket, never behind it.
func TestBucketStoreClampsToFloor(t *testing.T) {
	b := newBucketStore(4, 1, 4)
	b.update(0, 3)
	b.update(1, 5)
	b.advance(3)
	b.update(1, 0) // degree dropped below the bucket being peeled
	if got := b.bktOf[1]; got != 3 {
		t.Fatalf("clamped bucket = %d, want 3", got)
	}
	got := b.extract(3, nil)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("extract(3) = %v, want [0 1]", got)
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
// with random interleaved updates/removes/extractions.
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
		case 0, 1: // update (clamped to the floor like real callers)
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
				b.remove(v)
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
			if wantMin < b.cur {
				wantMin = b.cur
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
				id := d / 3
				if id < b.cur {
					id = b.cur
				}
				if id == k {
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
// count: exact k-core peeling (Δ = 1, a 64-bucket window) on a hub-heavy
// graph parks nearly every vertex beyond the window and then decrements it
// many times over before the window reaches it. Every such move is an
// overflow spill, but none needs a second physical copy, and a peeled
// vertex never comes back — so the list never outgrows the owned vertices.
func TestBucketOverflowOneCopyPerVertex(t *testing.T) {
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: 1 << 11, NumEdges: 80 << 11, Seed: 4}
	list, err := spec.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	err = comm.RunLocal(2, func(c *comm.Comm) error {
		ctx := core.NewCtx(c, 1)
		src := core.ListSource{Edges: list}
		pt, err := core.MakePartitioner(ctx, src, partition.Random, spec.NumVertices, 7)
		if err != nil {
			return err
		}
		g, _, err := core.Build(ctx, src, pt)
		if err != nil {
			return err
		}
		res, bk, err := kcoreExact(ctx, g)
		if err != nil {
			return err
		}
		if res.Buckets.OverflowSpills <= 2*uint64(g.NLoc) {
			return fmt.Errorf("rank %d: only %d overflow spills for %d vertices: the graph does not churn beyond the window", c.Rank(), res.Buckets.OverflowSpills, g.NLoc)
		}
		if bk.peakOverflow > int(g.NLoc) {
			return fmt.Errorf("rank %d: overflow peaked at %d entries for %d owned vertices (%d spills)", c.Rank(), bk.peakOverflow, g.NLoc, res.Buckets.OverflowSpills)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
