package comm

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestTracerCountsReadDuringCollectives reads every rank's Len and Dropped
// from another goroutine while the ranks run traced collectives, as a
// benchmark probe does while a resident cluster finishes a job: under
// -race the counts must be safe to read at any time, and once the ranks
// stop they must account for every round.
func TestTracerCountsReadDuringCollectives(t *testing.T) {
	const p, ring, rounds = 2, 64, 200
	trs := make([]*obs.Tracer, p)
	for r := range trs {
		trs[r] = obs.NewTracer(r, ring, time.Now())
	}
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, tr := range trs {
				if tr.Len() > ring {
					t.Errorf("rank %d holds %d events in a ring of %d", tr.Rank(), tr.Len(), ring)
				}
				_ = tr.Dropped()
			}
			runtime.Gosched()
		}
	}()
	err := RunLocal(p, func(c *Comm) error {
		c.SetTracer(trs[c.Rank()])
		for i := 0; i < rounds; i++ {
			if _, err := Allreduce(c, uint64(i), OpSum); err != nil {
				return err
			}
		}
		return nil
	})
	close(stop)
	reader.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for r, tr := range trs {
		if tr.Len() != ring || tr.Dropped() != rounds-ring {
			t.Errorf("rank %d: Len %d, Dropped %d after %d rounds, want %d and %d", r, tr.Len(), tr.Dropped(), rounds, ring, rounds-ring)
		}
	}
}

// TestTracedCollectivesZeroAlloc asserts that tracing ENABLED adds no
// allocation to the steady-state collective path: emitting a span is a slot
// store into the preallocated ring and the counters are integer adds.
// Like TestExchangeZeroAlloc, the measurement is process-global — rank 0
// counts while the sibling ranks run the same loop concurrently.
func TestTracedCollectivesZeroAlloc(t *testing.T) {
	const p = 4
	const runs = 25
	const perDest = 512
	err := RunLocal(p, func(c *Comm) error {
		c.SetTracer(obs.NewTracer(c.Rank(), 1<<14, time.Now()))
		c.SetMetrics(obs.NewMetrics())
		send := make([]uint64, p*perDest)
		for i := range send {
			send[i] = uint64(i)
		}
		counts := make([]int, p)
		for d := range counts {
			counts[d] = perDest
		}
		var recv []uint64
		var recvCounts []int
		var err error
		// Only the zero-alloc-contract collectives: AlltoallvInto with
		// retained buffers and Barrier (Allgather-family calls return
		// freshly allocated results by design).
		round := func() error {
			recv, recvCounts, err = AlltoallvInto(c, send, counts, recv, recvCounts)
			if err != nil {
				return err
			}
			return c.Barrier()
		}
		for i := 0; i < 3; i++ {
			if err := round(); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			avg := testing.AllocsPerRun(runs, func() {
				if err := round(); err != nil {
					t.Error(err)
				}
			})
			if avg != 0 {
				return fmt.Errorf("traced steady-state collectives allocate %v times per op, want 0", avg)
			}
			return nil
		}
		for i := 0; i < runs+1; i++ {
			if err := round(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTraceAgreesWithStats pins the by-construction agreement between the
// two observability layers: the communicator emits each round's span with
// the exact interval it folds into CommT+Idle, so per rank the comm span
// total equals the Stats in-collective total to the nanosecond, and the
// counter totals equal the Stats volume fields exactly.
func TestTraceAgreesWithStats(t *testing.T) {
	const p = 3
	err := RunLocal(p, func(c *Comm) error {
		tr := obs.NewTracer(c.Rank(), 1024, time.Now())
		met := obs.NewMetrics()
		c.SetTracer(tr)
		c.SetMetrics(met)
		c.ResetStats()

		send := make([]uint32, 3*p)
		counts := make([]int, p)
		for d := range counts {
			counts[d] = 3
		}
		for i := 0; i < 10; i++ {
			if _, _, err := Alltoallv(c, send, counts); err != nil {
				return err
			}
			if _, err := Allreduce(c, uint64(i), OpSum); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		s := c.TakeStats()

		var spanTotal int64
		var spanBytes uint64
		nEvents := uint64(0)
		for _, e := range tr.Events() {
			spanTotal += e.Dur
			spanBytes += uint64(e.Arg)
			nEvents++
		}
		if want := (s.CommT + s.Idle).Nanoseconds(); spanTotal != want {
			return fmt.Errorf("rank %d: span total %d ns, stats CommT+Idle %d ns", c.Rank(), spanTotal, want)
		}
		if nEvents != s.Exchanges {
			return fmt.Errorf("rank %d: %d spans for %d exchanges", c.Rank(), nEvents, s.Exchanges)
		}
		if spanBytes != s.BytesSent {
			return fmt.Errorf("rank %d: span args sum %d, stats sent %d", c.Rank(), spanBytes, s.BytesSent)
		}
		tot := met.Total()
		if tot.WireBytesOut != s.BytesSent || tot.WireBytesIn != s.BytesRecv || tot.Calls != s.Exchanges {
			return fmt.Errorf("rank %d: counters %+v disagree with stats %+v", c.Rank(), tot, s)
		}
		if want := (s.CommT + s.Idle).Nanoseconds(); tot.WaitNs+tot.CommNs != want {
			return fmt.Errorf("rank %d: counter time %d ns, stats %d ns", c.Rank(), tot.WaitNs+tot.CommNs, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCollectiveAttribution checks the outermost-wins rule: composite
// collectives (Allreduce over Allgather) are counted under their own name,
// and each collective lands in its own bucket.
func TestCollectiveAttribution(t *testing.T) {
	err := RunLocal(2, func(c *Comm) error {
		met := obs.NewMetrics()
		c.SetMetrics(met)
		if err := c.Barrier(); err != nil {
			return err
		}
		if _, err := Allreduce(c, uint64(1), OpSum); err != nil {
			return err
		}
		if _, err := Allgather(c, uint64(2)); err != nil {
			return err
		}
		if _, err := AllreduceSlice(c, []uint64{1, 2}, OpMax); err != nil {
			return err
		}
		if _, _, err := Allgatherv(c, []uint64{3}); err != nil {
			return err
		}
		if _, err := ExScan(c, uint64(1), OpSum, 0); err != nil {
			return err
		}
		if _, _, _, err := MaxLoc(c, uint64(c.Rank()), 7); err != nil {
			return err
		}
		if _, err := Bcast(c, []uint32{9}, 0); err != nil {
			return err
		}
		want := map[obs.Collective]uint64{
			obs.CBarrier:    1,
			obs.CAllreduce:  2, // scalar + slice, inner gathers NOT double-counted
			obs.CAllgather:  1,
			obs.CAllgatherv: 1,
			obs.CScan:       1,
			obs.CMaxLoc:     1,
			obs.CBcast:      1,
		}
		for k, n := range want {
			if got := met.Collective(k).Calls; got != n {
				return fmt.Errorf("rank %d: %s calls = %d, want %d", c.Rank(), k, got, n)
			}
		}
		if got := met.Collective(obs.CNone).Calls; got != 0 {
			return fmt.Errorf("rank %d: %d unattributed rounds", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
