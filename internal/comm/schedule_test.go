package comm

import (
	"errors"
	"fmt"
	"net"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"
)

// allgatherScript runs `rounds` validated Allgathers, reporting how many
// completed before the first error.
func allgatherScript(rounds int) func(c *Comm) (int, error) {
	return func(c *Comm) (int, error) {
		for i := 0; i < rounds; i++ {
			got, err := Allgather(c, uint64(c.Rank()*100+i))
			if err != nil {
				return i, err
			}
			for r, v := range got {
				if v != uint64(r*100+i) {
					return i, fmt.Errorf("round %d: got[%d] = %d", i, r, v)
				}
			}
		}
		return rounds, nil
	}
}

func TestScheduledTruncateDetectedAsCorrupt(t *testing.T) {
	s := FaultSchedule{Faults: []Fault{{Rank: 0, Round: 2, Op: FaultTruncate, Peer: 1}}}
	errs, sts := runScheduledLocal(2, s, func(c *Comm) error {
		_, err := allgatherScript(3)(c)
		return err
	})
	var ce *CommError
	if errs[0] == nil || !errors.As(errs[0], &ce) {
		t.Fatalf("rank 0: want CommError, got %v", errs[0])
	}
	if ce.Kind != KindCorrupt || ce.Peer != 1 {
		t.Errorf("rank 0: kind %v peer %d, want corrupt from peer 1", ce.Kind, ce.Peer)
	}
	if errs[1] == nil {
		t.Error("rank 1: aborted group must surface an error")
	}
	if sts[0].Injected() != 1 {
		t.Errorf("injected = %d, want 1", sts[0].Injected())
	}
}

func TestScheduledDuplicateDetectedAsCorrupt(t *testing.T) {
	s := FaultSchedule{Faults: []Fault{{Rank: 1, Round: 3, Op: FaultDuplicate, Peer: 0}}}
	errs, _ := runScheduledLocal(2, s, func(c *Comm) error {
		_, err := allgatherScript(4)(c)
		return err
	})
	var ce *CommError
	if errs[1] == nil || !errors.As(errs[1], &ce) || ce.Kind != KindCorrupt {
		t.Fatalf("rank 1: want corrupt CommError, got %v", errs[1])
	}
}

func TestScheduledDelayIsTransparent(t *testing.T) {
	s := FaultSchedule{Faults: []Fault{{Rank: 0, Round: 2, Op: FaultDelay, Delay: 2 * time.Millisecond}}}
	errs, sts := runScheduledLocal(2, s, func(c *Comm) error {
		_, err := allgatherScript(4)(c)
		return err
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if sts[0].Injected() != 1 {
		t.Errorf("injected = %d, want 1", sts[0].Injected())
	}
}

func TestScheduledFatalAbortsGroup(t *testing.T) {
	s := FaultSchedule{Faults: []Fault{{Rank: 0, Round: 2, Op: FaultFatal}}}
	errs, _ := runScheduledLocal(3, s, func(c *Comm) error {
		_, err := allgatherScript(4)(c)
		return err
	})
	if !errors.Is(errs[0], ErrInjected) {
		t.Fatalf("rank 0: want ErrInjected, got %v", errs[0])
	}
	var ce *CommError
	if !errors.As(errs[0], &ce) || ce.Kind != KindFatal {
		t.Errorf("rank 0: want fatal CommError, got %v", errs[0])
	}
	for r := 1; r < 3; r++ {
		if errs[r] == nil || !errors.As(errs[r], &ce) || ce.Kind != KindAborted {
			t.Errorf("rank %d: want aborted CommError, got %v", r, errs[r])
		}
	}
}

func TestRandomFaultScheduleDeterministic(t *testing.T) {
	a := RandomFaultSchedule(7, 4, 20, 12)
	b := RandomFaultSchedule(7, 4, 20, 12)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	c := RandomFaultSchedule(8, 4, 20, 12)
	if reflect.DeepEqual(a.Faults, c.Faults) {
		t.Fatal("different seeds produced identical schedules")
	}
	for _, f := range a.Faults {
		if f.Rank < 0 || f.Rank >= 4 {
			t.Errorf("fault rank %d out of range", f.Rank)
		}
		if f.Round < 2 || f.Round > 20 {
			t.Errorf("fault round %d outside [2, 20]", f.Round)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want ErrKind
	}{
		{ErrAborted, KindAborted},
		{os.ErrDeadlineExceeded, KindTimeout},
		{&net.OpError{Op: "read", Err: os.ErrDeadlineExceeded}, KindTimeout},
		{ErrInjected, KindFatal},
		{errors.New("anything else"), KindFatal},
		{&CommError{Kind: KindCorrupt}, KindCorrupt},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// runScheduledLocal runs fn SPMD over size inproc ranks wrapped in
// ScheduledTransports sharing one fault schedule. Per-rank errors are returned individually (unlike
// RunOn's joined error) so tests can assert what every rank observed; a
// failing rank aborts the group exactly as RunOn would.
func runScheduledLocal(size int, s FaultSchedule, fn func(c *Comm) error) ([]error, []*ScheduledTransport) {
	trs := NewLocalGroup(size)
	sts := make([]*ScheduledTransport, size)
	comms := make([]*Comm, size)
	for r := range trs {
		sts[r] = NewScheduledTransport(trs[r], s)
		comms[r] = New(sts[r])
	}
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := range comms {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("rank %d panicked: %v", r, p)
				}
				if errs[r] != nil {
					sts[r].Abort()
				}
			}()
			errs[r] = fn(comms[r])
		}(r)
	}
	wg.Wait()
	return errs, sts
}
