package comm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// Fault-schedule conformance suite (the fault-tolerant counterpart of
// TestConformanceAcrossTransports): the full collective script runs under a
// battery of seeded FaultSchedules on both the in-process group and the TCP
// mesh. Every run must land in exactly one of two clean outcomes:
//
//   - every fault that fired was a delay, which the group absorbs, and each
//     rank's results are byte-identical to the fault-free baseline; or
//   - the schedule included a fault the group cannot absorb (truncate,
//     duplicate, fatal), and every rank surfaced a rank-attributed
//     *CommError — no deadlocks, no partial groups, no bare errors.

// runScheduledTCP mirrors runScheduledLocal over a freshly dialed TCP mesh:
// each rank's transport is wrapped in a ScheduledTransport sharing one
// schedule, per-rank errors are captured individually, and a failing rank's
// deferred Close (plus the per-frame exchange deadline) unblocks its peers.
func runScheduledTCP(t *testing.T, size int, s FaultSchedule, fn func(c *Comm) error) ([]error, []*ScheduledTransport) {
	t.Helper()
	addrs := reservePorts(t, size)
	errs := make([]error, size)
	sts := make([]*ScheduledTransport, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := DialMesh(r, addrs, 10*time.Second)
			if err != nil {
				errs[r] = fmt.Errorf("dial: %w", err)
				return
			}
			tr.SetExchangeDeadline(5 * time.Second)
			sts[r] = NewScheduledTransport(tr, s)
			c := New(sts[r])
			defer c.Close()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("rank %d panicked: %v", r, p)
				}
			}()
			errs[r] = fn(c)
		}(r)
	}
	wg.Wait()
	return errs, sts
}

// conformanceRounds is the number of transport rounds runConformanceScript
// drives (pinned by TestConformanceCounterShape): 2 barriers, 1 allgather,
// 1 allgatherv, 3 alltoallv, 2 bcasts, 4 allreduce, 1 exscan, 2 maxloc.
const conformanceRounds = 16

func TestFaultScheduleConformance(t *testing.T) {
	const size = 4
	baseline := collectConformance(t, conformanceTransports()[0], size)

	absorbed, fatal := 0, 0
	for seed := uint64(1); seed <= 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sched := RandomFaultSchedule(seed, size, conformanceRounds, 3)
			for _, mode := range []string{"inproc", "tcp"} {
				recs := make([]*rankRecord, size)
				var mu sync.Mutex
				body := func(c *Comm) error {
					r, err := runConformanceScript(c)
					if err != nil {
						return err
					}
					mu.Lock()
					recs[c.Rank()] = r
					mu.Unlock()
					return nil
				}
				var errs []error
				var sts []*ScheduledTransport
				if mode == "inproc" {
					errs, sts = runScheduledLocal(size, sched, body)
				} else {
					errs, sts = runScheduledTCP(t, size, sched, body)
				}
				failed := 0
				for _, e := range errs {
					if e != nil {
						failed++
					}
				}
				injected := uint64(0)
				for _, st := range sts {
					if st != nil {
						injected += st.Injected()
					}
				}
				if failed == 0 {
					absorbed++
					if injected == 0 {
						t.Errorf("%s: schedule %v injected nothing", mode, sched.Faults)
					}
					for r := 0; r < size; r++ {
						if recs[r] == nil {
							t.Fatalf("%s rank %d recorded nothing", mode, r)
						}
						if recs[r].results != baseline[r].results {
							t.Errorf("%s rank %d results diverge from fault-free baseline:\n--- baseline\n%s\n--- faulted\n%s",
								mode, r, baseline[r].results, recs[r].results)
						}
					}
				} else {
					fatal++
					for r, e := range errs {
						var ce *CommError
						if e == nil || !errors.As(e, &ce) {
							t.Errorf("%s rank %d: group failed but rank got %v (want a CommError on every rank)", mode, r, e)
						}
					}
				}
			}
		})
	}
	if absorbed == 0 || fatal == 0 {
		t.Errorf("schedule battery did not cover both outcomes: %d absorbed, %d fatal", absorbed, fatal)
	}
}
