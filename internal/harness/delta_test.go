package harness

import "testing"

// TestDeltaReducesTraffic is the count pin CI runs on the delta sweep's
// in-memory entries, on the harness RMAT graph. The baseline is the same
// kernel at one fat bucket (Bellman-Ford rounds), so it shares Δ-stepping's
// local light-chain cascade and once-per-sub-round ghost forwarding, and
// ships no more than the thin auto width, whose extra rounds each carry a
// control word (DESIGN.md §5.4). What the auto width must keep buying is
// therefore pinned per extreme: fewer relaxed edges than the fat bucket,
// which re-relaxes every improved vertex's whole adjacency, and no more
// bytes than Δ=1, which pays a round — and a claim exchange — per distance
// value.
func TestDeltaReducesTraffic(t *testing.T) {
	cfg := tinyConfig()
	cfg.Delta = 7 // the sweep's optional fixed-width variant
	entries, err := DeltaRaw(cfg, 2, "wc-rmat", cfg.wcSim())
	if err != nil {
		t.Fatal(err)
	}
	byVariant := make(map[string]DeltaEntry)
	for _, e := range entries {
		byVariant[e.Variant] = e
		if e.Rounds == 0 || e.Buckets.Extracted == 0 {
			t.Fatalf("degenerate %s run: %d rounds, %d extracted", e.Variant, e.Rounds, e.Buckets.Extracted)
		}
	}
	if len(entries) != 5 || byVariant["delta=7"].Delta != 7 {
		t.Fatalf("sweep has %d variants, -delta 7 ran at Δ=%d; want 5 and 7", len(entries), byVariant["delta=7"].Delta)
	}
	base, one, auto := byVariant["fat-bucket"], byVariant["delta=1"], byVariant["auto"]
	if base.Buckets.Buckets != 1 || base.Buckets.HeavyRelaxations != 0 {
		t.Fatalf("baseline is not one fat bucket: %+v", base.Buckets)
	}
	if auto.Delta == 0 {
		t.Fatalf("auto variant did not record its derived width")
	}
	relaxed := func(e DeltaEntry) uint64 { return e.Buckets.LightRelaxations + e.Buckets.HeavyRelaxations }
	if relaxed(auto) >= relaxed(base) {
		t.Fatalf("auto delta relaxed %d edges, fat-bucket baseline %d: bucket order must save relaxation work on the RMAT graph",
			relaxed(auto), relaxed(base))
	}
	if auto.SentMiB > one.SentMiB {
		t.Fatalf("auto delta shipped %.3f MiB, Δ=1 %.3f MiB: the auto width must not exceed the per-distance extreme",
			auto.SentMiB, one.SentMiB)
	}
	t.Logf("auto(Δ=%d): %d relaxations vs fat bucket %d (saved %.1f%%); sent MiB auto=%.4f fat=%.4f Δ=1=%.4f",
		auto.Delta, relaxed(auto), relaxed(base), 100*(1-float64(relaxed(auto))/float64(relaxed(base))),
		auto.SentMiB, base.SentMiB, one.SentMiB)
}
