package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/edge"
	"repro/internal/gen"
	"repro/internal/seq"
)

const manifestPath = "../BENCHMARK.json"

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestIsValid holds BENCHMARK.json to the limits the PR driver
// refuses a manifest for, and to the metric lists this package emits.
func TestManifestIsValid(t *testing.T) {
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("manifest is %d bytes, limit 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := "command end_to_end paths per_layer run_seconds workloads"; strings.Join(got, " ") != want {
		t.Errorf("manifest keys %v, want exactly %s", got, want)
	}

	m, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
	if len(m.Command) == 0 || len(m.Command) > 32 {
		t.Errorf("command has %d strings", len(m.Command))
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	seen := make(map[string]bool)
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(m.Workloads))
	}
	var declared []string
	for _, w := range m.Workloads {
		name("workload", w.Name)
		declared = append(declared, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	sort.Strings(declared)
	if strings.Join(declared, " ") != strings.Join(workloadNames(), " ") {
		t.Errorf("manifest workloads %v, program runs %v", declared, workloadNames())
	}
	// The driver makes 4 + 22 runs per workload inside 3420 s; leave each
	// run as much again as it measures for set-up, checking and probes.
	if runs := 4 + 22*len(m.Workloads); runs*2*m.RunSeconds > 3420 {
		t.Errorf("%d runs of %d s leave no room for set-up inside 3420 s", runs, m.RunSeconds)
	}

	check := func(kind string, have []manifestMetric, want []decl, bounded bool) {
		if len(have) != len(want) {
			t.Errorf("%s: manifest declares %d metrics, program emits %d", kind, len(have), len(want))
			return
		}
		for i, h := range have {
			name(kind, h.Name)
			if !unitRE.MatchString(h.Unit) {
				t.Errorf("%s %s: unit %q", kind, h.Name, h.Unit)
			}
			if w := want[i]; h.Name != w.name || h.Unit != w.unit || h.Better != w.better {
				t.Errorf("%s #%d: manifest has %s [%s, %s], program has %s [%s, %s]",
					kind, i, h.Name, h.Unit, h.Better, w.name, w.unit, w.better)
			}
			switch {
			case bounded && (h.Bound == nil || *h.Bound <= 0 || *h.Bound > 0.25):
				t.Errorf("%s %s: bound must be set, in (0, 0.25]", kind, h.Name)
			case !bounded && h.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, h.Name)
			}
		}
	}
	if len(m.EndToEnd) < 1 || len(m.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", len(m.EndToEnd))
	}
	if len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", len(m.PerLayer))
	}
	check("end_to_end", m.EndToEnd, endToEndMetrics, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if s := m.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("first end-to-end metric must be setup_s [s, lower], is %+v", s)
	}
}

// TestSmokeEmitsDeclaredNames runs every workload, untraced and traced, at
// a size that takes a moment, and requires the emitted metric names to be
// exactly the declared ones and every answer to pass its oracle check.
func TestSmokeEmitsDeclaredNames(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			out := t.TempDir()
			_, res, err := execute(config{
				workload: w, seed: 7, seconds: 0.4, trace: trace,
				logN: 10, setupReps: 2, workDir: t.TempDir(), outDir: out,
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEndMetrics
			if trace {
				want = perLayer
				if _, err := os.Stat(filepath.Join(out, "trace-"+w+".json")); err != nil {
					t.Errorf("%s: traced run wrote no span file: %v", w, err)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := res.Metrics[d.name]
				if !ok {
					t.Errorf("%s trace=%v: declared metric %s not emitted", w, trace, d.name)
				} else if got.Unit != d.unit {
					t.Errorf("%s trace=%v: %s emitted in %q, declared %q", w, trace, d.name, got.Unit, d.unit)
				}
				if !trace && ok && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, d.name, got.Value)
				}
			}
		}
	}
}

// TestFastOraclesMatchSeq pins the two references this package re-derives
// for speed to the obvious ones in internal/seq.
func TestFastOraclesMatchSeq(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		spec := gen.Spec{Kind: gen.RMAT, NumVertices: 1 << 9, NumEdges: 36 << 9, Seed: seed}
		edges, err := spec.GenerateAll()
		if err != nil {
			t.Fatal(err)
		}
		g := seq.FromEdges(spec.NumVertices, edges)
		var want uint32
		for _, c := range seq.Coreness(g) {
			if c > want {
				want = c
			}
		}
		if got := degeneracy(g); got != want {
			t.Errorf("seed %d: degeneracy %d, seq.Coreness max %d", seed, got, want)
		}
		wantLP := seq.LabelProp(g, 4)
		for v, l := range labelProp(g, 4) {
			if l != wantLP[v] {
				t.Fatalf("seed %d: labelProp[%d] = %d, seq.LabelProp %d", seed, v, l, wantLP[v])
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsPerS []float64) string {
		path := filepath.Join(dir, name)
		for _, v := range opsPerS {
			rec := record{Header: header{Workload: "serve-read-mix"}, Result: result{Correct: true, Attempted: 1,
				Metrics: map[string]metric{"ops_per_s": {v, "1/s"}}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.jsonl", []float64{100, 101, 99, 100, 102})
	same := write("b.jsonl", []float64{101, 100, 99, 100, 101})
	slow := write("c.jsonl", []float64{70, 71, 69, 70, 72})
	noisy := write("d.jsonl", []float64{60, 140, 100, 80, 120})
	for _, c := range []struct {
		b         string
		regressed bool
		verdict   string
	}{{same, false, " ok"}, {slow, true, "regressed"}, {noisy, false, "unresolved"}} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, manifestPath, base, c.b)
		if err != nil {
			t.Fatal(err)
		}
		line := ""
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.Contains(l, "ops_per_s") {
				line = l
			}
		}
		if regressed != c.regressed || !strings.HasSuffix(line, c.verdict) {
			t.Errorf("%s vs %s: regressed=%v, line %q; want regressed=%v, verdict %q",
				filepath.Base(base), filepath.Base(c.b), regressed, line, c.regressed, c.verdict)
		}
	}
}

// TestReplayMatchesApplyTo pins the incremental mutation oracle to
// edge.Batch.ApplyTo, on batches that churn the same edges (insert of a
// live edge, delete of a multi-edge, delete then re-insert).
func TestReplayMatchesApplyTo(t *testing.T) {
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: 1 << 7, NumEdges: 36 << 7, Seed: 5}
	base, err := spec.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	rng := newRNG(5, 9)
	var batches []edge.Batch
	for b := 0; b < 6; b++ {
		var batch edge.Batch
		for i := 0; i < 200; i++ {
			m := edge.Mutation{Op: edge.OpInsert, Src: uint32(rng.intn(16)), Dst: uint32(rng.intn(1 << 7))}
			if rng.intn(2) == 0 {
				j := rng.intn(base.Len())
				m = edge.Mutation{Op: edge.OpDelete, Src: base.Src(j), Dst: base.Dst(j)}
			}
			batch = append(batch, m)
			if rng.intn(4) == 0 { // and straight back, or straight out again
				m.Op = edge.OpInsert + edge.OpDelete - m.Op
				batch = append(batch, m)
			}
		}
		batches = append(batches, batch)
	}
	sorted := func(l edge.List) []edgeKey {
		out := make([]edgeKey, l.Len())
		for i := range out {
			out[i] = edgeKey{l.Src(i), l.Dst(i)}
		}
		sort.Slice(out, func(a, b int) bool {
			return out[a][0] < out[b][0] || (out[a][0] == out[b][0] && out[a][1] < out[b][1])
		})
		return out
	}
	want := base
	for e, live := range replay(base, batches) {
		want = batches[e].ApplyTo(want)
		got, exp := sorted(liveEdges(base, live)), sorted(want)
		if len(got) != len(exp) {
			t.Fatalf("epoch %d: %d live edges, ApplyTo has %d", e+1, len(got), len(exp))
		}
		for i := range got {
			if got[i] != exp[i] {
				t.Fatalf("epoch %d: edge %d is %v, ApplyTo has %v", e+1, i, got[i], exp[i])
			}
		}
	}
}
