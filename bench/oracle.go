package main

import (
	"fmt"
	"maps"
	"math"
	"sync"

	"repro/internal/analytics"
	"repro/internal/edge"
	"repro/internal/seq"
)

// oracle answers "what should the program have said" for one logical graph
// from the sequential reference implementations in internal/seq. Answers
// are memoized per query so repeated sources cost one traversal; it is safe
// for concurrent use.
type oracle struct {
	g  *seq.Graph
	mu sync.Mutex
	m  map[string]*memo
}

type memo struct {
	once sync.Once
	val  any
}

func newOracle(n uint32, edges edge.List) *oracle {
	return &oracle{g: seq.FromEdges(n, edges), m: make(map[string]*memo)}
}

func (o *oracle) do(key string, f func() any) any {
	o.mu.Lock()
	e := o.m[key]
	if e == nil {
		e = &memo{}
		o.m[key] = e
	}
	o.mu.Unlock()
	e.once.Do(func() { e.val = f() })
	return e.val
}

type bfsAnswer struct {
	reached uint64
	depth   int
}

func (o *oracle) bfs(src uint32, dir string) bfsAnswer {
	return o.do(fmt.Sprintf("bfs/%s/%d", dir, src), func() any {
		d := seq.Forward
		switch dir {
		case "in":
			d = seq.Backward
		case "und":
			d = seq.Und
		}
		var a bfsAnswer
		for _, l := range seq.BFS(o.g, src, d) {
			if l >= 0 {
				a.reached++
				if int(l) > a.depth {
					a.depth = int(l)
				}
			}
		}
		return a
	}).(bfsAnswer)
}

func (o *oracle) harmonic(v uint32) float64 {
	return o.do(fmt.Sprintf("harmonic/%d", v), func() any { return seq.Harmonic(o.g, v) }).(float64)
}

type wccAnswer struct{ components, largest uint64 }

func (o *oracle) wcc() wccAnswer {
	return o.do("wcc", func() any {
		sizes := make(map[uint32]uint64)
		for _, l := range seq.WCC(o.g) {
			sizes[l]++
		}
		a := wccAnswer{components: uint64(len(sizes))}
		for _, s := range sizes {
			if s > a.largest {
				a.largest = s
			}
		}
		return a
	}).(wccAnswer)
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func (o *oracle) pagerankMax(iters int, damping float64) float64 {
	return o.do(fmt.Sprintf("pr/%d/%v", iters, damping), func() any {
		return maxOf(seq.PageRank(o.g, iters, damping))
	}).(float64)
}

func (o *oracle) wpagerankMax(iters int, damping float64, seed, maxW uint64) float64 {
	return o.do(fmt.Sprintf("wpr/%d/%v/%d/%d", iters, damping, seed, maxW), func() any {
		return maxOf(seq.PageRankWeighted(o.g, iters, damping, analytics.HashWeights(seed, maxW)))
	}).(float64)
}

// degeneracy is the maximum exact coreness under seq.Coreness's semantics
// (undirected degree, loops twice, parallel edges with multiplicity).
// seq.Coreness itself is quadratic — 8 s at the benchmark's graph size — so
// the oracle peels with degree buckets instead; the package test pins the
// two equal.
func (o *oracle) degeneracy() uint32 {
	return o.do("degeneracy", func() any { return degeneracy(o.g) }).(uint32)
}

func degeneracy(g *seq.Graph) uint32 {
	n := int(g.N)
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = int(g.UndDeg(uint32(v)))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Lazy bucket queue: a vertex may sit in several buckets; only the
	// entry matching its current degree is live.
	buckets := make([][]uint32, maxDeg+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], uint32(v))
	}
	removed := make([]bool, n)
	k := 0
	for d := 0; d <= maxDeg; {
		if len(buckets[d]) == 0 {
			d++
			continue
		}
		v := buckets[d][len(buckets[d])-1]
		buckets[d] = buckets[d][:len(buckets[d])-1]
		if removed[v] || deg[v] != d {
			continue
		}
		if d > k {
			k = d
		}
		removed[v] = true
		low := d
		drop := func(u uint32) {
			if !removed[u] {
				deg[u]--
				buckets[deg[u]] = append(buckets[deg[u]], u)
				if deg[u] < low {
					low = deg[u]
				}
			}
		}
		for _, u := range g.OutN(v) {
			drop(u)
		}
		for _, u := range g.InN(v) {
			drop(u)
		}
		// Neighbours may now sit below the scan position (parallel edges
		// drop a degree by more than one).
		d = low
	}
	return uint32(k)
}

// labelProp is seq.LabelProp (synchronous, undirected neighbourhood with
// multiplicity, ties to the smallest label, isolated vertices keep theirs)
// with a dense counter in place of the per-vertex map; seq's version takes
// 3 s per iteration at the benchmark's graph size. Pinned equal to seq by
// the package test.
func labelProp(g *seq.Graph, iters int) []uint32 {
	labels := make([]uint32, g.N)
	next := make([]uint32, g.N)
	for v := range labels {
		labels[v] = uint32(v)
	}
	count := make([]uint32, g.N)
	var touched []uint32
	for it := 0; it < iters; it++ {
		for v := uint32(0); v < g.N; v++ {
			touched = touched[:0]
			see := func(u uint32) {
				l := labels[u]
				if count[l] == 0 {
					touched = append(touched, l)
				}
				count[l]++
			}
			for _, u := range g.OutN(v) {
				see(u)
			}
			for _, u := range g.InN(v) {
				see(u)
			}
			best, bestCount := labels[v], uint32(0)
			for _, l := range touched {
				if c := count[l]; c > bestCount || (c == bestCount && l < best) {
					best, bestCount = l, c
				}
				count[l] = 0
			}
			next[v] = best
		}
		labels, next = next, labels
	}
	return labels
}

// edgeKey identifies a directed edge; parallel copies share a key.
type edgeKey [2]uint32

// replay applies the batches in order with edge.Batch.ApplyTo's semantics
// (an insert adds one copy unless a live copy exists; a delete removes every
// copy) and returns, for epoch e = 1..len(batches) at index e-1, the live
// copy count of every edge any batch touches. ApplyTo itself rebuilds a
// 2.4 M-entry map per call — 0.6 s an epoch, longer than the run it checks —
// so the oracle replays incrementally; the package test pins liveEdges of a
// replay equal to ApplyTo.
func replay(base edge.List, batches []edge.Batch) []map[edgeKey]int {
	cur := make(map[edgeKey]int)
	for _, b := range batches {
		for _, m := range b {
			cur[edgeKey{m.Src, m.Dst}] = 0
		}
	}
	for i := 0; i < base.Len(); i++ {
		k := edgeKey{base.Src(i), base.Dst(i)}
		if _, touched := cur[k]; touched {
			cur[k]++
		}
	}
	out := make([]map[edgeKey]int, len(batches))
	for e, b := range batches {
		for _, m := range b {
			k := edgeKey{m.Src, m.Dst}
			switch {
			case m.Op == edge.OpDelete:
				cur[k] = 0
			case cur[k] == 0:
				cur[k] = 1
			}
		}
		out[e] = maps.Clone(cur)
	}
	return out
}

// liveEdges is the edge list of one replayed epoch: every base edge no
// batch touches, then the live copies of the touched ones.
func liveEdges(base edge.List, live map[edgeKey]int) edge.List {
	out := edge.Make(base.Len())
	for i := 0; i < base.Len(); i++ {
		if _, touched := live[edgeKey{base.Src(i), base.Dst(i)}]; !touched {
			out.Push(base.Src(i), base.Dst(i))
		}
	}
	for k, copies := range live {
		for c := 0; c < copies; c++ {
			out.Push(k[0], k[1])
		}
	}
	return out
}

const scoreTol = 1e-9

func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= scoreTol*math.Max(1, math.Abs(want))
}

// checkJob compares one answered job against the oracle: every field of the
// JobResult the sequential references can reproduce.
func (o *oracle) checkJob(asked *analytics.Job, got *analytics.JobResult) error {
	j := *asked
	j.Normalize() // the defaults the server filled in
	job := &j
	if got == nil {
		return fmt.Errorf("%s: no result", job.Analytic)
	}
	if got.Analytic != job.Analytic {
		return fmt.Errorf("asked %s, answered %s", job.Analytic, got.Analytic)
	}
	if job.SourceRooted() {
		if len(got.Sources) != len(job.Sources) {
			return fmt.Errorf("%s: %d sources asked, %d answered", job.Analytic, len(job.Sources), len(got.Sources))
		}
		for i, src := range job.Sources {
			ss := got.Sources[i]
			if ss.Source != src {
				return fmt.Errorf("%s: answer %d is for source %d, want %d", job.Analytic, i, ss.Source, src)
			}
			switch job.Analytic {
			case analytics.JobBFS:
				if want := o.bfs(src, job.Dir); ss.Reached != want.reached || ss.Depth != want.depth {
					return fmt.Errorf("bfs %s from %d: reached %d depth %d, want %d/%d", job.Dir, src, ss.Reached, ss.Depth, want.reached, want.depth)
				}
			case analytics.JobSSSP:
				// Positive weights never change reachability, so the
				// forward BFS count is the SSSP reached count.
				if want := o.bfs(src, "out"); ss.Reached != want.reached {
					return fmt.Errorf("sssp from %d: reached %d, want %d", src, ss.Reached, want.reached)
				}
			case analytics.JobHarmonic:
				if want := o.harmonic(src); !closeTo(ss.Score, want) {
					return fmt.Errorf("harmonic of %d: %v, want %v", src, ss.Score, want)
				}
			}
		}
		return nil
	}
	switch job.Analytic {
	case analytics.JobPageRank:
		if want := o.pagerankMax(job.Iterations, job.Damping); !closeTo(got.MaxScore, want) {
			return fmt.Errorf("pagerank max score %v, want %v", got.MaxScore, want)
		}
	case analytics.JobPageRankWeighted:
		if want := o.wpagerankMax(job.Iterations, job.Damping, job.WeightSeed, job.MaxWeight); !closeTo(got.MaxScore, want) {
			return fmt.Errorf("wpagerank max score %v, want %v", got.MaxScore, want)
		}
	case analytics.JobWCC:
		if want := o.wcc(); got.NumComponents != want.components || got.LargestSize != want.largest {
			return fmt.Errorf("wcc %d components largest %d, want %d/%d", got.NumComponents, got.LargestSize, want.components, want.largest)
		}
	case analytics.JobKCore:
		if want := o.degeneracy(); got.MaxCoreness != want {
			return fmt.Errorf("kcore max coreness %d, want %d", got.MaxCoreness, want)
		}
	default:
		return fmt.Errorf("no oracle for analytic %q", job.Analytic)
	}
	return nil
}
