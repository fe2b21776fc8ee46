package harness

import (
	"slices"
	"strconv"
	"testing"
)

// TestFig6CorenessShape pins Figure 6 at the smallest WC-sim scale tried
// where both of the paper's shapes hold — Scale 0.25 (16,384 vertices, m =
// 36n) on the experiment's 2 ranks; at 0.18 and below at most 73% of the
// vertices are at ≤ 32: at least 75% of the vertices have a coreness bound
// of at most 32, and a small dense core, under 1% of the vertices (the
// paper's is 0.5%), survives to the top bound. The cumulative fractions are
// literals recorded on commit 6652938, before KCoreApprox's peel and
// coloring moved onto the claim round; every bound is a fixed point of the
// peel, so none may move.
func TestFig6CorenessShape(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scale = 0.25
	rep, err := Fig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]string{
		{"2", "0.2366"}, {"4", "0.3591"}, {"8", "0.4948"}, {"16", "0.6074"}, {"32", "0.7786"},
		{"64", "0.8118"}, {"128", "0.9102"}, {"256", "0.9713"}, {"512", "0.9935"}, {"1024", "1.0000"},
	}
	var got [][2]string
	for _, row := range rep.Rows {
		got = append(got, [2]string{row[0], row[2]})
	}
	if !slices.Equal(got, want) {
		t.Errorf("(bound, cumulative fraction) rows\n got %v\nwant %v", got, want)
	}
	var at32, belowTop float64
	for i, row := range got {
		ub, err := strconv.Atoi(row[0])
		if err != nil {
			t.Fatal(err)
		}
		frac, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if ub <= 32 {
			at32 = frac
		}
		if i == len(got)-2 {
			belowTop = frac
		}
	}
	if at32 < 0.75 {
		t.Errorf("%.4f of the vertices have a coreness bound ≤ 32, want at least 0.75", at32)
	}
	if top := 1 - belowTop; top <= 0 || top >= 0.01 {
		t.Errorf("%.4f of the vertices survive to the top bound, want a core under 1%%", top)
	}
}
