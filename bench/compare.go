package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// readRecords groups a -record file's untraced runs by workload and metric.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Header.Trace {
			continue
		}
		w := out[rec.Header.Workload]
		if w == nil {
			w = make(map[string][]float64)
			out[rec.Header.Workload] = w
		}
		for name, m := range rec.Result.Metrics {
			w[name] = append(w[name], m.Value)
		}
		w["ops_failed"] = append(w["ops_failed"], float64(rec.Result.Failed))
	}
	return out, sc.Err()
}

// compareFiles prints, per workload and end-to-end metric, both sides'
// median and quartiles, the relative change of b against a in the
// direction that is worse, and a verdict against the manifest's bound:
// regressed (worse by more than the bound), unresolved (either side's
// quartile spread is wider than the bound, so the runs cannot tell), or ok.
// It reports whether anything regressed.
func compareFiles(w io.Writer, manifestPath, aPath, bPath string) (bool, error) {
	m, err := loadManifest(manifestPath)
	if err != nil {
		return false, err
	}
	a, err := readRecords(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(a))
	for wl := range a {
		names = append(names, wl)
	}
	sort.Strings(names)
	regressed := false
	fmt.Fprintf(w, "%-17s %-13s %4s %11s %11s %11s %7s | %11s %11s %11s %7s | %8s %6s  %s\n",
		"workload", "metric", "n", "a.q1", "a.median", "a.q3", "a.iqr", "b.q1", "b.median", "b.q3", "b.iqr", "worse", "bound", "verdict")
	for _, wl := range names {
		for _, d := range m.EndToEnd {
			av, bv := a[wl][d.Name], b[wl][d.Name]
			if len(av) < 2 || len(bv) < 2 {
				fmt.Fprintf(w, "%-17s %-13s needs at least two runs on each side (have %d and %d)\n", wl, d.Name, len(av), len(bv))
				continue
			}
			aq1, amed, aq3 := quartiles(av)
			bq1, bmed, bq3 := quartiles(bv)
			aSpread, bSpread := (aq3-aq1)/amed, (bq3-bq1)/bmed
			worse := (bmed - amed) / amed
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > *d.Bound:
				verdict = "regressed"
				regressed = true
			case aSpread > *d.Bound || bSpread > *d.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-17s %-13s %4d %11.4f %11.4f %11.4f %6.1f%% | %11.4f %11.4f %11.4f %6.1f%% | %+7.1f%% %5.0f%%  %s\n",
				wl, d.Name, len(av), aq1, amed, aq3, 100*aSpread, bq1, bmed, bq3, 100*bSpread, 100*worse, 100**d.Bound, verdict)
		}
		if fa, fb := sum(a[wl]["ops_failed"]), sum(b[wl]["ops_failed"]); fa+fb > 0 {
			fmt.Fprintf(w, "%-17s ops_failed    a=%.0f b=%.0f\n", wl, fa, fb)
			if fb > fa {
				regressed = true
			}
		}
	}
	return regressed, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
