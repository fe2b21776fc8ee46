package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/edge"
)

// config is one benchmark run. logN and setupReps are not flags: the driver
// and the README use the constants below, the package test a smoke size.
type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	logN      int
	setupReps int
	// workDir holds every file the run creates (edge file, shard stores).
	workDir string
	// outDir receives trace-<workload>.json on a traced run.
	outDir string
}

const (
	// defaultLogN sizes the graph: the repo's WC-sim R-MAT, n = 2^16,
	// m = 36 n.
	defaultLogN = 16
	// defaultSetupReps is how many times an untraced run sets up; setup_s
	// is the median.
	defaultSetupReps = 3
)

// opRecord is one operation sent to the program during the timed section.
type opRecord struct {
	kind    string
	latency time.Duration
	// timed says whether the latency feeds op_p50_ms / op_p90_ms (the
	// workload's query operations) or only ops_per_s.
	timed bool
	// err is a failure seen while sending: transport error, non-2xx, 429,
	// timeout.
	err error
	// epoch selects the logical graph check runs against: the number of
	// mutation batches acknowledged before the operation.
	epoch int
	// check compares the recorded answer with the oracle; nil when the
	// answer was fully checked inline (e.g. an admin call's status).
	check func(o *oracle) error
}

// run accumulates what one workload run measured.
type run struct {
	cfg config
	tr  *tracer
	in  *input

	setupSamples []time.Duration

	mu      sync.Mutex
	records []opRecord
	// roundRates[c] is client c's operations per second in each round.
	roundRates [][]float64
	// residentMiB and peakRSSMiB are read when the timed section ends,
	// before verification allocates oracle graphs.
	residentMiB, peakRSSMiB float64
	// batches are the mutation batches the workload acknowledged, in
	// order; epoch k's graph is batches[:k] applied to the input, and
	// live[k-1] its replayed edge counts (filled by verify).
	batches []edge.Batch
	live    []map[edgeKey]int

	// layer holds the per-layer rows of a traced run; the fields after it
	// are what the timed section's workload-derived rows are computed from.
	layer             map[string]float64
	waitedMS          []float64 // server-reported queue+run time per answered query
	statsBefore       *statsReply
	memBefore, memEnd runtime.MemStats
	// nextOp numbers operations for span correlation.
	nextOp atomic.Int64
}

func (r *run) add(rec opRecord) {
	r.mu.Lock()
	r.records = append(r.records, rec)
	r.mu.Unlock()
}

func (r *run) opID() int64 { return r.nextOp.Add(1) }

// timeSetup runs setup cfg.setupReps times, tearing each but the last down
// again, and records every duration. setup returns the teardown for what it
// built.
func (r *run) timeSetup(setup func() (teardown func() error, err error)) error {
	for rep := 0; rep < r.cfg.setupReps; rep++ {
		id := r.tr.start(0, 0, "setup")
		start := time.Now()
		teardown, err := setup()
		r.tr.end(id)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setupSamples = append(r.setupSamples, time.Since(start))
		if rep < r.cfg.setupReps-1 {
			if err := teardown(); err != nil {
				return fmt.Errorf("set-up teardown: %w", err)
			}
		}
	}
	return nil
}

// clients runs n closed-loop clients until the measuring window has passed.
// A client works in rounds — a fixed, workload-defined run of operations —
// and finishes the round it is in; round returns how many operations it
// sent, or 0 to stop the client after a failure nothing later could recover
// from. Each round's rate is kept, because ops_per_s is the median over
// rounds: a stall of a second or two (a noisy neighbour, a long collection)
// then costs one round, not the whole run's figure.
func (r *run) clients(n int, round func(client, k int) (ops int)) {
	window := time.Duration(r.cfg.seconds * float64(time.Second))
	r.roundRates = make([][]float64, n)
	if r.tr != nil {
		runtime.ReadMemStats(&r.memBefore)
		r.tr.from = r.tr.now()
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Since(start) < window; k++ {
				t0 := time.Now()
				ops := round(c, k)
				if ops == 0 {
					return
				}
				r.roundRates[c] = append(r.roundRates[c], float64(ops)/time.Since(t0).Seconds())
			}
		}(c)
	}
	wg.Wait()
	if r.tr != nil {
		r.tr.to = r.tr.now()
		runtime.ReadMemStats(&r.memEnd)
	}
	r.peakRSSMiB = procStatusMiB("VmHWM")
	// What the process holds once garbage is gone: the resident graph, the
	// caches, the generated input. The high-water mark above also counts
	// whatever garbage the collector had not reached yet, which differs
	// from run to run by tens of MiB.
	debug.FreeOSMemory()
	r.residentMiB = procStatusMiB("VmRSS")
}

// opsPerSecond is the clients' median round rates, summed.
func (r *run) opsPerSecond() float64 {
	total := 0.0
	for _, rates := range r.roundRates {
		total += median(rates)
	}
	return total
}

// procStatusMiB reads one kB field of /proc/self/status (VmRSS, VmHWM).
// Where /proc is missing it falls back to what the Go runtime obtained from
// the OS, which over-reports but never reads zero.
func procStatusMiB(field string) float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, field+":"); ok {
				f := strings.Fields(rest)
				if len(f) >= 1 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// verify runs every record's oracle check and returns how many operations
// failed (send failures included). Each epoch is its own graph and oracle;
// with several epochs they are checked two at a time, with one the checks
// themselves are.
func (r *run) verify() (failed int, firstErr error) {
	byEpoch := make(map[int][]*opRecord)
	var epochs []int
	for i := range r.records {
		rec := &r.records[i]
		if rec.err != nil || rec.check == nil {
			continue
		}
		if byEpoch[rec.epoch] == nil {
			epochs = append(epochs, rec.epoch)
		}
		byEpoch[rec.epoch] = append(byEpoch[rec.epoch], rec)
	}
	r.live = replay(r.in.edges, r.batches)
	check := func(rec *opRecord, o *oracle) {
		if err := rec.check(o); err != nil {
			rec.err = fmt.Errorf("oracle mismatch: %w", err)
		}
	}
	if len(epochs) == 1 {
		recs, o := byEpoch[epochs[0]], r.oracleAt(epochs[0])
		inParallel(len(recs), func(i int) { check(recs[i], o) })
	} else {
		inParallel(len(epochs), func(i int) {
			o := r.oracleAt(epochs[i])
			for _, rec := range byEpoch[epochs[i]] {
				check(rec, o)
			}
		})
	}
	for i := range r.records {
		if err := r.records[i].err; err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", r.records[i].kind, err)
			}
		}
	}
	return failed, firstErr
}

// inParallel calls fn(0..n-1) from maxClients goroutines.
func inParallel(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < maxClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// oracleAt builds the oracle for the input after the first epoch
// acknowledged batches.
func (r *run) oracleAt(epoch int) *oracle {
	if epoch == 0 {
		return newOracle(r.in.n, r.in.edges)
	}
	return newOracle(r.in.n, liveEdges(r.in.edges, r.live[epoch-1]))
}
