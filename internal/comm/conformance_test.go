package comm

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// Cross-transport conformance suite: one deterministic script exercises
// every collective, and every transport the repo ships — the in-process
// rendezvous group, the same group wrapped in a ScheduledTransport with an
// empty schedule (the wrapper every fault test runs through), and the TCP
// full mesh — must produce byte-identical results, the identical per-rank trace event
// sequence, and identical per-collective counters (timing fields excluded).
// The collectives' semantics and their observability output are transport
// invariants; only clocks may differ.

// conformanceTransport names one way of running an SPMD group.
type conformanceTransport struct {
	name string
	run  func(t *testing.T, size int, fn func(c *Comm) error)
}

func conformanceTransports() []conformanceTransport {
	return []conformanceTransport{
		{"inproc", func(t *testing.T, size int, fn func(c *Comm) error) {
			t.Helper()
			if err := RunLocal(size, fn); err != nil {
				t.Fatal(err)
			}
		}},
		{"scheduled-wrapped", func(t *testing.T, size int, fn func(c *Comm) error) {
			t.Helper()
			trs := NewLocalGroup(size)
			comms := make([]*Comm, size)
			for r := range trs {
				comms[r] = New(NewScheduledTransport(trs[r], FaultSchedule{}))
			}
			if err := RunOn(comms, fn); err != nil {
				t.Fatal(err)
			}
		}},
		{"tcp", func(t *testing.T, size int, fn func(c *Comm) error) {
			t.Helper()
			runTCPGroup(t, size, fn)
		}},
	}
}

// rankRecord is one rank's observable outcome of the conformance script.
type rankRecord struct {
	results string   // fmt-rendered value of every collective result
	events  []string // "name arg" per trace event, in emission order
	snap    [obs.NumCollectives]obs.CollectiveStats
}

// runConformanceScript drives every collective with rank-deterministic
// inputs and records results, trace events, and counters.
func runConformanceScript(c *Comm) (*rankRecord, error) {
	tr := obs.NewTracer(c.Rank(), 1024, time.Now())
	met := obs.NewMetrics()
	c.SetTracer(tr)
	c.SetMetrics(met)
	defer c.SetTracer(nil)
	defer c.SetMetrics(nil)

	size, self := c.Size(), c.Rank()
	var b strings.Builder
	rec := func(format string, args ...any) {
		fmt.Fprintf(&b, format+"\n", args...)
	}

	if err := c.Barrier(); err != nil {
		return nil, err
	}

	vals, err := Allgather(c, uint64(self)*7+3)
	if err != nil {
		return nil, err
	}
	rec("allgather %v", vals)

	// Rank r contributes r elements (rank 0 contributes none: empty
	// segments must conform too).
	contrib := make([]uint32, self)
	for i := range contrib {
		contrib[i] = uint32(self*100 + i)
	}
	all, counts, err := Allgatherv(c, contrib)
	if err != nil {
		return nil, err
	}
	rec("allgatherv %v %v", all, counts)

	// Alltoallv with triangular counts; dest r receives r+1 elements from
	// each source.
	var send []uint32
	sendCounts := make([]int, size)
	for d := 0; d < size; d++ {
		sendCounts[d] = d + 1
		for k := 0; k <= d; k++ {
			send = append(send, uint32(self*1000+d*10+k))
		}
	}
	recv, recvCounts, err := Alltoallv(c, send, sendCounts)
	if err != nil {
		return nil, err
	}
	rec("alltoallv %v %v", recv, recvCounts)

	// Two AlltoallvInto rounds through retained buffers — the steady-state
	// analytics path.
	var rbuf []uint64
	var rcounts []int
	for round := 0; round < 2; round++ {
		var s64 []uint64
		c64 := make([]int, size)
		for d := 0; d < size; d++ {
			c64[d] = (self + d + round) % 3
			for k := 0; k < c64[d]; k++ {
				s64 = append(s64, uint64(self*1_000_000+d*1000+round*100+k))
			}
		}
		rbuf, rcounts, err = AlltoallvInto(c, s64, c64, rbuf, rcounts)
		if err != nil {
			return nil, err
		}
		rec("alltoallvinto[%d] %v %v", round, rbuf, rcounts)
	}

	for _, root := range []int{0, size - 1} {
		var payload []float64
		if self == root {
			payload = []float64{1.5, 2.5, float64(root)}
		}
		got, err := Bcast(c, payload, root)
		if err != nil {
			return nil, err
		}
		rec("bcast[%d] %v", root, got)
	}

	sum, err := Allreduce(c, uint64(self)+1, OpSum)
	if err != nil {
		return nil, err
	}
	mn, err := Allreduce(c, int32(self)-5, OpMin)
	if err != nil {
		return nil, err
	}
	mx, err := Allreduce(c, float64(self)*1.25, OpMax)
	if err != nil {
		return nil, err
	}
	rec("allreduce %d %d %g", sum, mn, mx)

	slc, err := AllreduceSlice(c, []uint64{uint64(self), uint64(self * self), 7}, OpSum)
	if err != nil {
		return nil, err
	}
	rec("allreduceslice %v", slc)

	scan, err := ExScan(c, uint64(self)+1, OpSum, 0)
	if err != nil {
		return nil, err
	}
	rec("exscan %d", scan)

	// MaxLoc with a deliberate tie on the max value: every rank offers the
	// same value, so the lowest rank must win everywhere.
	mv, mp, mr, err := MaxLoc(c, uint64(42), uint64(self*11))
	if err != nil {
		return nil, err
	}
	rec("maxloc-tie %d %d %d", mv, mp, mr)
	mv2, mp2, mr2, err := MaxLoc(c, uint64(self*3), uint64(self+100))
	if err != nil {
		return nil, err
	}
	rec("maxloc %d %d %d", mv2, mp2, mr2)

	if err := c.Barrier(); err != nil {
		return nil, err
	}

	r := &rankRecord{results: b.String(), snap: met.Snapshot()}
	for _, e := range tr.Events() {
		r.events = append(r.events, fmt.Sprintf("%s %d", e.Name, e.Arg))
	}
	// Timing is the one legitimately transport-dependent field pair.
	for k := range r.snap {
		r.snap[k].WaitNs = 0
		r.snap[k].CommNs = 0
	}
	return r, nil
}

// collectConformance runs the script over one transport and returns the
// per-rank records.
func collectConformance(t *testing.T, ct conformanceTransport, size int) []*rankRecord {
	t.Helper()
	recs := make([]*rankRecord, size)
	var mu sync.Mutex
	ct.run(t, size, func(c *Comm) error {
		r, err := runConformanceScript(c)
		if err != nil {
			return err
		}
		mu.Lock()
		recs[c.Rank()] = r
		mu.Unlock()
		return nil
	})
	return recs
}

func TestConformanceAcrossTransports(t *testing.T) {
	for _, size := range []int{1, 2, 4} {
		size := size
		t.Run(fmt.Sprintf("ranks=%d", size), func(t *testing.T) {
			transports := conformanceTransports()
			baseline := collectConformance(t, transports[0], size)
			for r, rec := range baseline {
				if rec == nil || rec.results == "" {
					t.Fatalf("%s rank %d recorded nothing", transports[0].name, r)
				}
				if len(rec.events) == 0 {
					t.Fatalf("%s rank %d emitted no trace events", transports[0].name, r)
				}
			}
			for _, ct := range transports[1:] {
				got := collectConformance(t, ct, size)
				for r := 0; r < size; r++ {
					if got[r].results != baseline[r].results {
						t.Errorf("%s rank %d results diverge from %s:\n--- %s\n%s\n--- %s\n%s",
							ct.name, r, transports[0].name,
							transports[0].name, baseline[r].results, ct.name, got[r].results)
					}
					if gl, bl := strings.Join(got[r].events, "\n"), strings.Join(baseline[r].events, "\n"); gl != bl {
						t.Errorf("%s rank %d event sequence diverges from %s:\n--- %s\n%s\n--- %s\n%s",
							ct.name, r, transports[0].name, transports[0].name, bl, ct.name, gl)
					}
					if got[r].snap != baseline[r].snap {
						t.Errorf("%s rank %d counters diverge from %s:\n%+v\nvs\n%+v",
							ct.name, r, transports[0].name, baseline[r].snap, got[r].snap)
					}
				}
			}
		})
	}
}

// TestConformanceCounterShape pins structural properties of the counters the
// script must produce on any transport: every collective kind is exercised,
// call counts match the script, and the self-bypass accounting is nonzero
// exactly where a self segment exists.
func TestConformanceCounterShape(t *testing.T) {
	const size = 2
	recs := collectConformance(t, conformanceTransports()[0], size)
	for r, rec := range recs {
		for k := obs.CBarrier; k < obs.NumCollectives; k++ {
			if rec.snap[k].Calls == 0 {
				t.Errorf("rank %d: collective %s never recorded", r, k)
			}
		}
		// Script rounds: 2 barriers, 1 allgather, 1 allgatherv, 3 alltoallv
		// (1 + 2 Into), 2 bcasts, 4 allreduce rounds (3 scalar + 1 slice),
		// 1 exscan, 2 maxloc.
		want := map[obs.Collective]uint64{
			obs.CBarrier:    2,
			obs.CAllgather:  1,
			obs.CAllgatherv: 1,
			obs.CAlltoallv:  3,
			obs.CBcast:      2,
			obs.CAllreduce:  4,
			obs.CScan:       1,
			obs.CMaxLoc:     2,
		}
		for k, n := range want {
			if rec.snap[k].Calls != n {
				t.Errorf("rank %d: %s calls = %d, want %d", r, k, rec.snap[k].Calls, n)
			}
		}
		if rec.snap[obs.CBarrier].WireBytesOut != 0 {
			t.Errorf("rank %d: barrier shipped %d payload bytes", r, rec.snap[obs.CBarrier].WireBytesOut)
		}
		if rec.snap[obs.CAllgather].SelfBytes != 8 {
			t.Errorf("rank %d: allgather self bytes = %d, want 8", r, rec.snap[obs.CAllgather].SelfBytes)
		}
		// Bcast: only the root keeps a self copy; rank r roots one of the
		// two bcasts in this 2-rank script (3 float64 = 24 bytes).
		if rec.snap[obs.CBcast].SelfBytes != 24 {
			t.Errorf("rank %d: bcast self bytes = %d, want 24", r, rec.snap[obs.CBcast].SelfBytes)
		}
	}
}
