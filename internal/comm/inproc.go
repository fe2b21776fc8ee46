package comm

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ErrAborted is returned by collectives on surviving ranks after another
// rank aborts the group (error return or panic). Without it, a failed rank
// would leave its peers blocked forever at the next synchronization point —
// the in-process analogue of an MPI job hanging on a crashed rank.
var ErrAborted = errors.New("comm: group aborted by another rank")

// spinWindow is how long a rank waiting at the in-process barrier polls
// for the last arrival before it parks on the condition variable. A round
// is two barriers, so a kernel with many short rounds pays a park/wake
// cycle per barrier without it.
const spinWindow = 200 * time.Microsecond

// localWorld is the shared state of an in-process rank group: a
// generation-counting barrier plus one message board per rank.
type localWorld struct {
	size int

	mu      sync.Mutex
	cond    *sync.Cond
	count   int // arrivals in the current generation, guarded by mu
	gen     atomic.Uint64
	aborted atomic.Bool

	boards [][][]byte // boards[sender][dest]
}

// LocalTransport is one rank's handle on an in-process world. Create a full
// group with NewLocalGroup.
type LocalTransport struct {
	w    *localWorld
	rank int
	// inViews is the retained header slice Exchange returns; its entries
	// alias the senders' boards and are rewritten every round.
	inViews [][]byte
}

// NewLocalGroup creates size ranks sharing one in-process world and returns
// their transports, indexed by rank. Each transport must be used by exactly
// one goroutine.
func NewLocalGroup(size int) []*LocalTransport {
	if size <= 0 {
		panic("comm: group size must be positive")
	}
	w := &localWorld{
		size:   size,
		boards: make([][][]byte, size),
	}
	w.cond = sync.NewCond(&w.mu)
	ts := make([]*LocalTransport, size)
	for r := 0; r < size; r++ {
		ts[r] = &LocalTransport{w: w, rank: r}
	}
	return ts
}

// Rank returns this transport's rank.
func (t *LocalTransport) Rank() int { return t.rank }

// Size returns the number of ranks in the group.
func (t *LocalTransport) Size() int { return t.w.size }

// barrier blocks until all ranks of the world have arrived and returns the
// time spent blocked. It fails with ErrAborted if the group is aborted
// before or while waiting. The last rank to arrive advances the generation
// under the mutex; the others poll it for spinWindow, yielding between
// polls, and only then park until the broadcast.
func (w *localWorld) barrier() (time.Duration, error) {
	start := time.Now()
	w.mu.Lock()
	if w.aborted.Load() {
		w.mu.Unlock()
		return time.Since(start), ErrAborted
	}
	gen := w.gen.Load()
	w.count++
	if w.count == w.size {
		w.count = 0
		w.gen.Add(1)
		w.cond.Broadcast()
		w.mu.Unlock()
		return time.Since(start), nil
	}
	w.mu.Unlock()
	waiting := func() bool { return w.gen.Load() == gen && !w.aborted.Load() }
	for waiting() && time.Since(start) < spinWindow {
		runtime.Gosched()
	}
	if waiting() {
		w.mu.Lock()
		for waiting() {
			w.cond.Wait()
		}
		w.mu.Unlock()
	}
	if w.aborted.Load() {
		return time.Since(start), ErrAborted
	}
	return time.Since(start), nil
}

// Abort marks the group failed and wakes every rank blocked at a
// synchronization point; their in-flight and future collectives return
// ErrAborted.
func (t *LocalTransport) Abort() {
	w := t.w
	w.mu.Lock()
	w.aborted.Store(true)
	w.cond.Broadcast()
	w.mu.Unlock()
}

// Exchange implements Transport: it publishes out, waits for every rank to
// publish, and returns direct views of the senders' boards — no copy at
// all. Between the two barriers all ranks only read the boards, so
// concurrent borrowed reads are safe; Release's barrier keeps any rank from
// republishing, or from returning to a caller who then changes the memory
// its messages view, while a peer is still reading.
func (t *LocalTransport) Exchange(out [][]byte) ([][]byte, time.Duration, error) {
	w := t.w
	if len(out) != w.size {
		return nil, 0, fmt.Errorf("comm: Exchange with %d messages for %d ranks", len(out), w.size)
	}
	w.boards[t.rank] = out
	wait, err := w.barrier()
	if err != nil {
		return nil, wait, err
	}
	if t.inViews == nil {
		t.inViews = make([][]byte, w.size)
	}
	for i := 0; i < w.size; i++ {
		t.inViews[i] = w.boards[i][t.rank]
	}
	return t.inViews, wait, nil
}

// Release implements Transport: the closing barrier after which send
// boards may be reused and borrowed views are dead.
func (t *LocalTransport) Release() (time.Duration, error) {
	return t.w.barrier()
}

// Close implements Transport. In-process transports hold no resources.
func (t *LocalTransport) Close() error { return nil }
