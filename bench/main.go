// Command bench is the repository's benchmark: four workloads that drive a
// resident graphd as a client sees it (and the paper's own build-and-analyse
// cycle), every answer checked against the sequential references, with
// end-to-end metrics from an untraced run and per-layer rows from a traced
// one. BENCHMARK.json at the repository root declares the metrics; README.md
// here explains them.
//
//	go run ./bench -workload serve-read-mix -seed 1 -seconds 10 -trace 0
//	go run ./bench -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// header describes the host and the run, so a noisy machine shows in the
// record rather than only in the numbers.
type header struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	LoadStart  float64 `json:"load1_start"`
	LoadEnd    float64 `json:"load1_end"`
	// Samples counts what each reported quantile rests on.
	Samples map[string]int `json:"samples"`
}

// record is one line of a -record file: what -compare reads.
type record struct {
	Header header `json:"header"`
	Result result `json:"result"`
}

// workloads maps each name to what it runs. A serve workload returns the
// service it left running so the traced run can read its counters.
var workloads = map[string]func(r *run) (*service, error){
	"serve-read-mix":   runReadMix,
	"serve-hot-burst":  runHotBurst,
	"serve-mutate-mix": runMutateMix,
	"cold-lifecycle":   func(r *run) (*service, error) { return nil, runColdLifecycle(r) },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "seed for the generated graph and operation list")
		seconds  = flag.Float64("seconds", 10, "length of the timed section")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer rows and bench/out/trace-<workload>.json; 0 = end-to-end metrics")
		recordTo = flag.String("record", "", "append this run's header and result to a JSON-lines file")
		compare  = flag.Bool("compare", false, "compare two -record files: bench -compare a.jsonl b.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two record files"))
		}
		regressed, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if _, ok := workloads[*workload]; !ok || flag.NArg() > 0 {
		fatal(fmt.Errorf("-workload must be one of %s", strings.Join(workloadNames(), ", ")))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	// Everything a run writes stays inside the checkout it was started in.
	workDir, err := os.MkdirTemp(mkdir(filepath.Join(".bench_build", "work")), "run-")
	if err != nil {
		fatal(err)
	}
	hdr, res, err := execute(config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
		logN: defaultLogN, setupReps: defaultSetupReps,
		workDir: workDir, outDir: filepath.Join("bench", "out"),
	})
	removeAll(workDir)
	if err != nil {
		fatal(err)
	}
	printReport(hdr, res)
	if *recordTo != "" {
		if err := appendRecord(*recordTo, record{hdr, res}); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func mkdir(path string) string {
	if err := os.MkdirAll(path, 0o755); err != nil {
		fatal(err)
	}
	return path
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(2)
}

// execute runs one workload once and returns what it measured.
func execute(cfg config) (header, result, error) {
	hdr := header{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Commit: commit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		LoadStart: loadAvg(), Samples: make(map[string]int),
	}
	r := &run{cfg: cfg, layer: make(map[string]float64)}
	if cfg.trace {
		r.tr = newTracer()
		r.cfg.setupReps = 1 // a traced run reports no setup_s
	}
	svc, err := workloads[cfg.workload](r)
	if err != nil {
		if svc != nil {
			svc.close()
		}
		return hdr, result{}, err
	}
	if cfg.trace {
		if err := r.workloadRows(svc); err != nil {
			if svc != nil {
				svc.close()
			}
			return hdr, result{}, err
		}
	}
	if svc != nil {
		if err := svc.close(); err != nil {
			return hdr, result{}, fmt.Errorf("service shutdown: %w", err)
		}
	}
	timedOps := len(r.records)
	if cfg.trace {
		if err := r.probeLayers(); err != nil {
			return hdr, result{}, err
		}
	}
	failed, firstErr := r.verify()
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %d of %d operations failed; first: %v\n", failed, len(r.records), firstErr)
	}
	res := result{Correct: failed == 0, Attempted: len(r.records), Failed: failed, Metrics: make(map[string]metric)}
	if cfg.trace {
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{r.layer[d.name], d.unit}
		}
		if err := r.tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")); err != nil {
			return hdr, result{}, err
		}
	} else {
		r.endToEnd(&res, &hdr, timedOps)
	}
	hdr.LoadEnd = loadAvg()
	return hdr, res, nil
}

// endToEnd fills the untraced run's metrics from the operation records.
func (r *run) endToEnd(res *result, hdr *header, timedOps int) {
	var lat []float64
	okOps := 0
	for _, rec := range r.records[:timedOps] {
		if rec.err != nil {
			continue
		}
		okOps++
		if rec.timed {
			lat = append(lat, ms(rec.latency))
		}
	}
	hdr.Samples["ops"] = timedOps
	hdr.Samples["op_latency"] = len(lat)
	for _, rates := range r.roundRates {
		hdr.Samples["rounds"] += len(rates)
	}
	hdr.Samples["setup"] = len(r.setupSamples)
	res.Metrics["setup_s"] = metric{median(msOf(r.setupSamples)) / 1e3, "s"}
	res.Metrics["ops_per_s"] = metric{r.opsPerSecond() * float64(okOps) / float64(timedOps), "1/s"}
	res.Metrics["op_p50_ms"] = metric{quantile(lat, 0.5), "ms"}
	res.Metrics["op_p90_ms"] = metric{quantile(lat, 0.9), "ms"}
	res.Metrics["resident_mib"] = metric{r.residentMiB, "MiB"}
}

// commit is the VCS revision the binary was built from, when the build had
// one to stamp (the PR driver's checkout is not a git repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// loadAvg is the host's 1-minute load average, or -1 where unreadable.
func loadAvg() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	var l float64
	if _, err := fmt.Sscan(string(data), &l); err != nil {
		return -1
	}
	return l
}

// printReport writes the run header and every metric by name with its unit.
func printReport(hdr header, res result) {
	h, _ := json.Marshal(hdr)
	fmt.Printf("# %s\n", h)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-36s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("%-36s %16d count\n%-36s %16d count\n", "ops_attempted", res.Attempted, "ops_failed", res.Failed)
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
