package vmap

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestEmptyMap(t *testing.T) {
	m := New(0)
	if m.Len() != 0 {
		t.Fatalf("Len = %d", m.Len())
	}
	if _, ok := m.Get(5); ok {
		t.Fatal("Get on empty map reported presence")
	}
	if got := m.GetOr(5, 77); got != 77 {
		t.Fatalf("GetOr default = %d", got)
	}
}

func TestPutGetOverwrite(t *testing.T) {
	m := New(4)
	m.Put(10, 1)
	m.Put(20, 2)
	m.Put(10, 3) // overwrite
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	if v, ok := m.Get(10); !ok || v != 3 {
		t.Fatalf("Get(10) = %d,%v", v, ok)
	}
	if v, ok := m.Get(20); !ok || v != 2 {
		t.Fatalf("Get(20) = %d,%v", v, ok)
	}
}

func TestGrowthPreservesEntries(t *testing.T) {
	m := New(1)
	const n = 100000
	for i := uint32(0); i < n; i++ {
		m.Put(i*7, i)
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	for i := uint32(0); i < n; i++ {
		if v, ok := m.Get(i * 7); !ok || v != i {
			t.Fatalf("Get(%d) = %d,%v, want %d", i*7, v, ok, i)
		}
	}
	// Absent keys interleaved with present ones.
	for i := uint32(0); i < n; i++ {
		if _, ok := m.Get(i*7 + 1); ok {
			t.Fatalf("Get(%d) falsely present", i*7+1)
		}
	}
}

func TestReservedKeyPanics(t *testing.T) {
	m := New(4)
	defer func() {
		if recover() == nil {
			t.Fatal("Put(Empty) did not panic")
		}
	}()
	m.Put(Empty, 1)
}

func TestQuickAgainstBuiltinMap(t *testing.T) {
	// Property: a sequence of Put/Get behaves identically to Go's map.
	type op struct {
		Key uint32
		Val uint32
		Put bool
	}
	f := func(ops []op) bool {
		m := New(2)
		ref := map[uint32]uint32{}
		for _, o := range ops {
			k := o.Key
			if k == Empty {
				k = 0
			}
			if o.Put {
				m.Put(k, o.Val)
				ref[k] = o.Val
			} else {
				gv, gok := m.Get(k)
				wv, wok := ref[k]
				if gok != wok || (gok && gv != wv) {
					return false
				}
			}
		}
		if m.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			if gv, ok := m.Get(k); !ok || gv != v {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestAdversarialClusteredKeys(t *testing.T) {
	// Sequential keys would cluster badly without a mixing hash; make sure
	// probe chains stay sane by timing-insensitive correctness checks under
	// dense sequential insertion.
	m := New(16)
	const n = 1 << 16
	for i := uint32(0); i < n; i++ {
		m.Put(i, i^0xdead)
	}
	for i := uint32(0); i < n; i++ {
		if v, ok := m.Get(i); !ok || v != i^0xdead {
			t.Fatalf("clustered key %d wrong value %d", i, v)
		}
	}
}

func BenchmarkVmapGetHit(b *testing.B) {
	const n = 1 << 20
	m := New(n)
	for i := uint32(0); i < n; i++ {
		m.Put(i*3, i)
	}
	x := rng.NewXoshiro256(1, 0)
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += m.GetOr(x.Uint32n(n)*3, 0)
	}
	_ = sink
}

func BenchmarkBuiltinMapGetHit(b *testing.B) {
	// Comparator for the paper's claim that a custom linear-probing map
	// beats a general-purpose map for this workload (see
	// BenchmarkAblationVmap at the repository root for the full ablation).
	const n = 1 << 20
	m := make(map[uint32]uint32, n)
	for i := uint32(0); i < n; i++ {
		m[i*3] = i
	}
	x := rng.NewXoshiro256(1, 0)
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += m[x.Uint32n(n)*3]
	}
	_ = sink
}
