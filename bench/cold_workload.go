package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/analytics"
	"repro/internal/seq"
	"repro/internal/serve"
)

const (
	// restoresPerCycle boots from the store this many times per cold build.
	restoresPerCycle = 3
	// The facade pass runs the paper's six analytics with these settings.
	coldPageRankIters  = 10
	coldLabelPropIters = 3
	coldKCoreLevels    = 12
)

// facadeAnswers is what one pass of the six analytics returned.
type facadeAnswers struct {
	pagerank  []float64
	labels    []uint32
	wcc       *repro.ComponentInfo
	harmonic  float64
	coreUB    []uint32
	sccMember []bool
	sccSize   uint64
}

// facadeWant is the sequential references' version of the same pass.
type facadeWant struct {
	pagerank []float64
	labels   []uint32
	harmonic float64
	coreUB   []uint32
	scc      []uint32
	sccSize  uint64
}

func (o *oracle) facade(hub uint32) *facadeWant {
	return o.do("facade", func() any {
		w := &facadeWant{
			pagerank: seq.PageRank(o.g, coldPageRankIters, 0.85),
			labels:   labelProp(o.g, coldLabelPropIters),
			harmonic: seq.Harmonic(o.g, hub),
			coreUB:   seq.CorenessUB(o.g, coldKCoreLevels),
			scc:      seq.SCC(o.g),
		}
		sizes := make(map[uint32]uint64)
		for _, l := range w.scc {
			sizes[l]++
			if sizes[l] > w.sccSize {
				w.sccSize = sizes[l]
			}
		}
		return w
	}).(*facadeWant)
}

// check compares a pass with the sequential references, whole vectors.
func (a *facadeAnswers) check(o *oracle, hub uint32) error {
	want := o.facade(hub)
	for v, s := range a.pagerank {
		if !closeTo(s, want.pagerank[v]) {
			return fmt.Errorf("pagerank[%d] = %v, want %v", v, s, want.pagerank[v])
		}
	}
	for v, l := range a.labels {
		if l != want.labels[v] {
			return fmt.Errorf("labelprop[%d] = %d, want %d", v, l, want.labels[v])
		}
	}
	if wc := o.wcc(); a.wcc.NumComponents != wc.components || a.wcc.LargestSize != wc.largest {
		return fmt.Errorf("wcc %d components largest %d, want %d/%d", a.wcc.NumComponents, a.wcc.LargestSize, wc.components, wc.largest)
	}
	if !closeTo(a.harmonic, want.harmonic) {
		return fmt.Errorf("harmonic(%d) = %v, want %v", hub, a.harmonic, want.harmonic)
	}
	for v, c := range a.coreUB {
		if c != want.coreUB[v] {
			return fmt.Errorf("kcore upper bound[%d] = %d, want %d", v, c, want.coreUB[v])
		}
	}
	// The largest SCC is compared as a set: its size, and that its members
	// are exactly one reference component of that size.
	if a.sccSize != want.sccSize {
		return fmt.Errorf("largest scc has %d vertices, want %d", a.sccSize, want.sccSize)
	}
	first, members := -1, uint64(0)
	for v, in := range a.sccMember {
		if !in {
			continue
		}
		if first < 0 {
			first = v
		} else if want.scc[v] != want.scc[first] {
			return fmt.Errorf("largest scc mixes the reference components of %d and %d", first, v)
		}
		members++
	}
	if members != want.sccSize {
		return fmt.Errorf("largest scc marks %d members, want %d", members, want.sccSize)
	}
	return nil
}

// hubVertex is the vertex of highest undirected degree (lowest id on ties),
// the one the paper computes harmonic centrality for.
func (in *input) hubVertex() uint32 {
	deg := make([]uint32, in.n)
	for i := 0; i < in.edges.Len(); i++ {
		deg[in.edges.Src(i)]++
		deg[in.edges.Dst(i)]++
	}
	hub := uint32(0)
	for v, d := range deg {
		if d > deg[hub] {
			hub = uint32(v)
		}
	}
	return hub
}

// stage times one lifecycle stage inside a span and records it as an
// operation. query marks the analytic calls, the operations whose latency
// the workload reports.
func (r *run) stage(kind string, query bool, fn func() (check func(*oracle) error, err error)) error {
	op := r.opID()
	id := r.tr.start(0, op, "op."+kind)
	start := time.Now()
	check, err := fn()
	rec := opRecord{kind: kind, latency: time.Since(start), timed: query, err: err, check: check}
	r.tr.end(id)
	r.add(rec)
	return err
}

// shapeCheck verifies a freshly built or restored cluster describes the
// input graph.
func (r *run) shapeCheck(cl *serve.Cluster) error {
	if cl.NumVertices() != r.in.n || cl.NumEdges() != uint64(r.in.edges.Len()) || cl.Size() != ranks {
		return fmt.Errorf("cluster is n=%d m=%d ranks=%d, input is n=%d m=%d ranks=%d",
			cl.NumVertices(), cl.NumEdges(), cl.Size(), r.in.n, r.in.edges.Len(), ranks)
	}
	return nil
}

// coldCycle is one deploy-restart-analyse cycle: cold build from the edge
// file, snapshot, three boots from the store (each answering a probe
// query), then the paper's user: load the file through the repro facade and
// run the six analytics once.
func (r *run) coldCycle(cycle int, pool []uint32, hub uint32) error {
	storeDir := filepath.Join(r.cfg.workDir, fmt.Sprintf("store-%d", cycle))
	defer removeAll(storeDir)

	var svc *service
	if err := r.stage("build", false, func() (func(*oracle) error, error) {
		s, err := startService(r.in, storeDir, nil)
		if err != nil {
			return nil, err
		}
		svc = s
		return nil, r.shapeCheck(s.cl)
	}); err != nil {
		if svc != nil {
			svc.close()
		}
		return err
	}
	err := r.stage("snapshot", false, func() (func(*oracle) error, error) {
		res, err := svc.cl.Snapshot()
		if err == nil && !res.Persisted {
			err = fmt.Errorf("snapshot not persisted: %s", res.Detail)
		}
		return nil, err
	})
	if cerr := svc.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	for i := 0; i < restoresPerCycle; i++ {
		probe := &analytics.Job{Analytic: analytics.JobBFS, Sources: []uint32{pool[(cycle*restoresPerCycle+i)%len(pool)]}}
		probe.Normalize()
		if err := r.stage("restore", false, func() (func(*oracle) error, error) {
			boot := r.tr.start(0, 0, "cold.boot")
			cl, err := serve.NewCluster(serve.ClusterConfig{Threads: threadsPerRank, StoreDir: storeDir})
			r.tr.end(boot)
			if err != nil {
				return nil, err
			}
			defer cl.Close()
			if !cl.BootedFromStore() {
				return nil, fmt.Errorf("cluster rebuilt instead of booting from the store")
			}
			if err := r.shapeCheck(cl); err != nil {
				return nil, err
			}
			res, _, err := cl.Run(probe)
			if err != nil {
				return nil, err
			}
			return func(o *oracle) error { return o.checkJob(probe, res) }, cl.Close()
		}); err != nil {
			return err
		}
	}

	fc := repro.NewCluster(ranks, threadsPerRank)
	defer fc.Close()
	var g *repro.Graph
	if err := r.stage("facade.load", false, func() (func(*oracle) error, error) {
		var err error
		g, err = fc.LoadFile(r.in.path, repro.PartRandom)
		if err == nil && (g.NumVertices() != r.in.n || g.NumEdges() != uint64(r.in.edges.Len())) {
			err = fmt.Errorf("facade graph is n=%d m=%d", g.NumVertices(), g.NumEdges())
		}
		return nil, err
	}); err != nil {
		return err
	}
	ans := &facadeAnswers{}
	passStart := r.tr.start(0, 0, "cold.analytics_pass")
	for _, a := range []struct {
		name string
		run  func() error
	}{
		{"pagerank", func() (err error) {
			ans.pagerank, err = g.PageRank(repro.PageRankOptions{Iterations: coldPageRankIters, Damping: 0.85})
			return
		}},
		{"labelprop", func() (err error) { ans.labels, err = g.LabelPropagation(coldLabelPropIters); return }},
		{"wcc", func() (err error) { ans.wcc, err = g.WCC(); return }},
		{"harmonic", func() (err error) { ans.harmonic, err = g.Harmonic(hub); return }},
		{"kcoreapprox", func() (err error) { ans.coreUB, err = g.KCore(coldKCoreLevels); return }},
		{"largestscc", func() (err error) { ans.sccMember, ans.sccSize, err = g.LargestSCC(); return }},
	} {
		last := a.name == "largestscc"
		if err := r.stage("facade."+a.name, true, func() (func(*oracle) error, error) {
			if err := a.run(); err != nil || !last {
				return nil, err
			}
			// The pass is checked as a whole, once its last answer is in.
			return func(o *oracle) error { return ans.check(o, hub) }, nil
		}); err != nil {
			return err
		}
	}
	r.tr.end(passStart)
	return fc.Close()
}

func runColdLifecycle(r *run) error {
	// Set-up is input generation and the edge file only: building is what
	// this workload measures.
	if err := r.timeSetup(func() (func() error, error) {
		in, err := makeInput(r.cfg.workDir, r.cfg.logN)
		r.in = in
		return func() error { return nil }, err
	}); err != nil {
		return err
	}
	pool := r.in.sourcePool(newRNG(r.cfg.seed, 1))
	hub := r.in.hubVertex()
	var cycleErr error
	// A round is one cycle: twelve stages.
	r.clients(1, func(_, cycle int) int {
		before := len(r.records)
		if cycleErr = r.coldCycle(cycle, pool, hub); cycleErr != nil {
			return 0
		}
		return len(r.records) - before
	})
	return cycleErr
}
