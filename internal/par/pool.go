// Package par provides intra-rank shared-memory parallelism: a worker pool
// with parallel-for loops, parallel prefix sums, and the thread-local send
// queues of the paper's Algorithm 3.
//
// In the paper each MPI task uses OpenMP threads to parallelize its local
// loops; here each rank owns a Pool of worker goroutines playing the same
// role. Thread counts are a per-rank knob exactly like OMP_NUM_THREADS.
package par

import (
	"runtime"
	"sync"
)

// Pool executes loop bodies across a fixed number of worker goroutines.
// A Pool is owned by a single rank and must not be shared between ranks;
// its methods must be called from one goroutine at a time (the rank's), but
// the bodies they invoke run concurrently on the workers.
type Pool struct {
	n int
}

// NewPool returns a pool with n workers. If n <= 0 the pool uses
// runtime.NumCPU() workers.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	return &Pool{n: n}
}

// Threads returns the number of workers in the pool.
func (p *Pool) Threads() int { return p.n }

// Run invokes body once per worker, concurrently, passing each worker its
// thread id in [0, Threads()). It returns when all workers have finished.
func (p *Pool) Run(body func(tid int)) {
	if p.n == 1 {
		body(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(p.n)
	for t := 0; t < p.n; t++ {
		go func(tid int) {
			defer wg.Done()
			body(tid)
		}(t)
	}
	wg.Wait()
}

// For executes body over the index range [0, n) split into one contiguous
// block per worker (static scheduling). body receives the half-open range
// [lo, hi) it must process and the worker's thread id.
//
// Static blocks preserve the vertex-order locality that the paper's block
// partitionings rely on.
func (p *Pool) For(n int, body func(lo, hi, tid int)) {
	if n <= 0 {
		return
	}
	if p.n == 1 || n < 2*p.n {
		body(0, n, 0)
		return
	}
	p.Run(func(tid int) {
		lo, hi := blockRange(n, p.n, tid)
		if lo < hi {
			body(lo, hi, tid)
		}
	})
}

// blockRange returns the half-open subrange of [0, n) assigned to worker
// tid out of nw workers, distributing the remainder one element at a time to
// the lowest-numbered workers.
func blockRange(n, nw, tid int) (lo, hi int) {
	q, r := n/nw, n%nw
	lo = tid*q + min(tid, r)
	hi = lo + q
	if tid < r {
		hi++
	}
	return lo, hi
}

// ThreadRange exposes the pool's static block split: the half-open subrange
// of [0, n) that worker tid of nw processes under For. Code running inside
// Run that wants For's distribution (e.g. a fill pass mirroring a counting
// pass) uses this.
func ThreadRange(n, nw, tid int) (lo, hi int) { return blockRange(n, nw, tid) }

// SumRangeU64 computes the sum of f(i) for i in [0, n) in parallel.
func (p *Pool) SumRangeU64(n int, f func(i int) uint64) uint64 {
	if n <= 0 {
		return 0
	}
	partial := make([]uint64, p.n)
	p.For(n, func(lo, hi, tid int) {
		var s uint64
		for i := lo; i < hi; i++ {
			s += f(i)
		}
		partial[tid] += s
	})
	var total uint64
	for _, v := range partial {
		total += v
	}
	return total
}

// SumRangeF64 computes the sum of f(i) for i in [0, n) in parallel.
func (p *Pool) SumRangeF64(n int, f func(i int) float64) float64 {
	if n <= 0 {
		return 0
	}
	partial := make([]float64, p.n)
	p.For(n, func(lo, hi, tid int) {
		var s float64
		for i := lo; i < hi; i++ {
			s += f(i)
		}
		partial[tid] += s
	})
	var total float64
	for _, v := range partial {
		total += v
	}
	return total
}
