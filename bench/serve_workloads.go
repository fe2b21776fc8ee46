package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/analytics"
	"repro/internal/edge"
	"repro/internal/serve"
)

// setupService is the serve workloads' set-up: generate the input, write
// the edge file, build the resident cluster from it and start serving.
func (r *run) setupService(storeDir string) (*service, error) {
	var svc *service
	err := r.timeSetup(func() (func() error, error) {
		if storeDir != "" {
			removeAll(storeDir) // a manifest left by an earlier repetition would turn the build into a restore
		}
		in, err := makeInput(r.cfg.workDir, r.cfg.logN)
		if err != nil {
			return nil, err
		}
		s, err := startService(in, storeDir, r.tr)
		if err != nil {
			return nil, err
		}
		if s.cl.NumVertices() != in.n || s.cl.NumEdges() != uint64(in.edges.Len()) {
			s.close()
			return nil, fmt.Errorf("resident graph is n=%d m=%d, input is n=%d m=%d",
				s.cl.NumVertices(), s.cl.NumEdges(), in.n, in.edges.Len())
		}
		r.in, svc = in, s
		return s.close, nil
	})
	return svc, err
}

// --- serve-read-mix -------------------------------------------------------

// readMixDeck is the exact composition of every 20 operations: 45% bfs,
// 25% sssp, 10% each harmonic, pagerank, wpagerank. Dealing from a shuffled
// deck instead of drawing each kind independently keeps the mix identical
// from seed to seed, so the latency quantiles compare.
var readMixDeck = func() []string {
	var d []string
	for _, k := range []struct {
		kind  string
		count int
	}{
		{analytics.JobBFS, 9}, {analytics.JobSSSP, 5}, {analytics.JobHarmonic, 2},
		{analytics.JobPageRank, 2}, {analytics.JobPageRankWeighted, 2},
	} {
		for i := 0; i < k.count; i++ {
			d = append(d, k.kind)
		}
	}
	return d
}()

var bfsDirs = []string{"out", "in", "und"}

// readMixGen deals one client's operations. Every job has parameters no
// other job of the run has (its own source, damping or weight seed), so the
// result cache never hits and batching has at most the other client's
// query to coalesce with.
type readMixGen struct {
	rng     *splitmix
	deck    []string
	sources []uint32 // this client's share of the source pool
	k       int      // operations dealt
}

func (g *readMixGen) next() *analytics.Job {
	if len(g.deck) == 0 {
		g.deck = append(g.deck, readMixDeck...)
		shuffle(g.rng, g.deck)
	}
	kind := g.deck[len(g.deck)-1]
	g.deck = g.deck[:len(g.deck)-1]
	k := g.k
	g.k++
	src := g.sources[k%len(g.sources)]
	job := &analytics.Job{Analytic: kind}
	switch kind {
	case analytics.JobBFS:
		job.Sources = []uint32{src}
		job.Dir = bfsDirs[k%len(bfsDirs)]
	case analytics.JobSSSP:
		job.Sources = []uint32{src}
		job.MaxWeight = 64
		job.WeightSeed = uint64(src)
	case analytics.JobHarmonic:
		job.Sources = []uint32{src}
	case analytics.JobPageRank:
		job.Iterations = 10
		job.Damping = 0.5 + float64(src)/float64(1<<24)
	case analytics.JobPageRankWeighted:
		job.Iterations = 10
		job.Damping = 0.85
		job.MaxWeight = 64
		job.WeightSeed = uint64(src)
	}
	return job
}

// sendQuery sends one wait:true query and records it, answer checked later.
func (r *run) sendQuery(svc *service, job *analytics.Job, epoch int) {
	op := r.opID()
	root := r.tr.start(0, op, "op."+job.Analytic)
	start := time.Now()
	rep, err := svc.query(op, root, job)
	rec := opRecord{kind: job.Analytic, latency: time.Since(start), timed: true, err: err, epoch: epoch}
	r.tr.end(root)
	if err == nil {
		rec.check = func(o *oracle) error { return o.checkJob(job, rep.Result) }
		r.noteWaited(rep)
	}
	r.add(rec)
}

// noteWaited keeps the server's own account of a query's queue+run time
// for the traced run's serve.waited_p50_ms row.
func (r *run) noteWaited(rep *reply) {
	if r.tr == nil {
		return
	}
	r.mu.Lock()
	r.waitedMS = append(r.waitedMS, float64(rep.WaitedMS))
	r.mu.Unlock()
}

func runReadMix(r *run) (*service, error) {
	svc, err := r.setupService("")
	if err != nil {
		return nil, err
	}
	pool := r.in.sourcePool(newRNG(r.cfg.seed, 1))
	gens := make([]*readMixGen, maxClients)
	for c := range gens {
		gens[c] = &readMixGen{rng: newRNG(r.cfg.seed, uint64(10+c))}
		for i := c; i < len(pool); i += maxClients {
			gens[c].sources = append(gens[c].sources, pool[i])
		}
	}
	if err := r.baseline(svc); err != nil {
		return svc, err
	}
	// A round is one deck: the same twenty kinds, in a new order.
	r.clients(maxClients, func(c, _ int) int {
		for i := 0; i < len(readMixDeck); i++ {
			r.sendQuery(svc, gens[c].next(), 0)
		}
		return len(readMixDeck)
	})
	return svc, nil
}

// --- serve-hot-burst ------------------------------------------------------

const (
	burstSize = 8
	// hotPool is four times the result cache's capacity, so the Zipf head
	// stays cached and the tail keeps evicting.
	hotPool = 4 * cacheCap
)

// zipfDeck deals sources with probability proportional to 1/(rank+1) over
// the pool (Zipf with exponent 1.0, which math/rand's Zipf cannot produce).
// Like the read mix it deals from a deck: one round's draws are a stratified
// sample — one uniform variate from each of deckSize equal slices of [0, 1),
// through the inverse CDF, then shuffled — so every round asks for the hot
// head and the cold tail in the expected proportion and the cache hit ratio
// does not wander from seed to seed.
type zipfDeck struct {
	rng  *splitmix
	pool []uint32
	cdf  []float64
	deck []uint32
}

const (
	burstsPerRound = 16
	deckSize       = burstsPerRound * burstSize
)

func newZipfDeck(rng *splitmix, pool []uint32) *zipfDeck {
	z := &zipfDeck{rng: rng, pool: pool, cdf: make([]float64, len(pool))}
	sum := 0.0
	for i := range z.cdf {
		sum += 1 / float64(i+1)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

// next deals n sources, opening a new deck when fewer are left.
func (z *zipfDeck) next(n int) []uint32 {
	if len(z.deck) < n {
		z.deck = z.deck[:0]
		for i := 0; i < deckSize; i++ {
			u := (float64(i) + z.rng.float()) / deckSize
			rank := min(sort.SearchFloat64s(z.cdf, u), len(z.pool)-1)
			z.deck = append(z.deck, z.pool[rank])
		}
		shuffle(z.rng, z.deck)
	}
	out := z.deck[len(z.deck)-n:]
	z.deck = z.deck[:len(z.deck)-n]
	return out
}

// burst is one hot-burst operation: seven wait:false BFS queries and one
// wait:true on the same connection, then a poll of every job that was not
// already terminal when admitted. All eight answers are checked.
func (r *run) burst(svc *service, sources []uint32, record bool) {
	op := r.opID()
	root := r.tr.start(0, op, "op.burst")
	start := time.Now()
	jobs := make([]*analytics.Job, len(sources))
	results := make([]*analytics.JobResult, len(sources))
	pending := make(map[int]string)
	var firstErr error
	for i, src := range sources {
		jobs[i] = &analytics.Job{Analytic: analytics.JobBFS, Sources: []uint32{src}}
		last := i == len(sources)-1
		status, rep, err := svc.call(op, root, "/v1/query", queryBody{Job: *jobs[i], Wait: last})
		switch {
		case err != nil:
			firstErr = err
		case status == http.StatusOK && rep.State == serve.StateDone:
			results[i] = rep.Result
			r.noteWaited(rep)
		case status == http.StatusAccepted && !last:
			pending[i] = rep.ID
		default:
			firstErr = fmt.Errorf("burst query %d: HTTP %d state %q: %s%s", i, status, rep.State, rep.Err, rep.AdmissionError)
		}
		if firstErr != nil {
			break
		}
	}
	for firstErr == nil && len(pending) > 0 {
		for i, id := range pending {
			status, rep, err := svc.call(op, root, "/v1/jobs/"+id, nil)
			if err != nil {
				firstErr = err
				break
			}
			if status != http.StatusOK || (rep.State.Terminal() && rep.State != serve.StateDone) {
				firstErr = fmt.Errorf("burst job %s: HTTP %d state %q: %s", id, status, rep.State, rep.Err)
				break
			}
			if rep.State == serve.StateDone {
				results[i] = rep.Result
				r.noteWaited(rep)
				delete(pending, i)
			}
		}
		if len(pending) > 0 {
			// Polling in a tight loop would take a core from the ranks.
			time.Sleep(time.Millisecond)
		}
	}
	rec := opRecord{kind: "burst", latency: time.Since(start), timed: true, err: firstErr}
	r.tr.end(root)
	if !record {
		return
	}
	if firstErr == nil {
		rec.check = func(o *oracle) error {
			for i := range jobs {
				if err := o.checkJob(jobs[i], results[i]); err != nil {
					return err
				}
			}
			return nil
		}
	}
	r.add(rec)
}

func runHotBurst(r *run) (*service, error) {
	svc, err := r.setupService("")
	if err != nil {
		return nil, err
	}
	pool := r.in.sourcePool(newRNG(r.cfg.seed, 1))
	if len(pool) > hotPool {
		pool = pool[:hotPool]
	}
	warm := newZipfDeck(newRNG(r.cfg.seed, 2), pool)
	for i := 0; i < burstsPerRound; i++ {
		r.burst(svc, warm.next(burstSize), false)
	}
	if err := r.baseline(svc); err != nil {
		return svc, err
	}
	draws := make([]*zipfDeck, maxClients)
	for c := range draws {
		draws[c] = newZipfDeck(newRNG(r.cfg.seed, uint64(10+c)), pool)
	}
	// A round is one deck of Zipf draws, burstsPerRound bursts.
	r.clients(maxClients, func(c, _ int) int {
		for i := 0; i < burstsPerRound; i++ {
			r.burst(svc, draws[c].next(burstSize), true)
		}
		return burstsPerRound
	})
	return svc, nil
}

// --- serve-mutate-mix -----------------------------------------------------

const (
	mutateBatchSize = 256
	// One cycle is a mutation batch and four reads; a round is four cycles,
	// then a compaction and a snapshot.
	cyclesPerRound = 4
)

// mutationGen produces the seed's batch stream: 70% inserts of random
// edges, 30% deletes of edges that are live when the batch applies (a
// delete removes every copy of its edge, so a deleted key is never drawn
// again).
type mutationGen struct {
	rng  *splitmix
	in   *input
	dead map[edgeKey]bool
}

func (g *mutationGen) next() edge.Batch {
	b := make(edge.Batch, 0, mutateBatchSize)
	for len(b) < mutateBatchSize {
		if g.rng.intn(10) < 7 {
			b = append(b, edge.Mutation{Op: edge.OpInsert,
				Src: uint32(g.rng.intn(int(g.in.n))), Dst: uint32(g.rng.intn(int(g.in.n)))})
			continue
		}
		i := g.rng.intn(g.in.edges.Len())
		k := edgeKey{g.in.edges.Src(i), g.in.edges.Dst(i)}
		if g.dead[k] {
			continue
		}
		g.dead[k] = true
		b = append(b, edge.Mutation{Op: edge.OpDelete, Src: k[0], Dst: k[1]})
	}
	return b
}

func firstInsert(b edge.Batch) edge.Mutation {
	for _, m := range b {
		if m.Op == edge.OpInsert {
			return m
		}
	}
	return b[0]
}

// sendAdmin posts one admin call and records it; ok inspects the answer.
func (r *run) sendAdmin(svc *service, kind, path string, epoch int, ok func(*reply) error) {
	op := r.opID()
	root := r.tr.start(0, op, "op."+kind)
	start := time.Now()
	status, rep, err := svc.call(op, root, path, struct{}{})
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("HTTP %d: %s", status, rep.Err)
	}
	if err == nil {
		err = ok(rep)
	}
	r.tr.end(root)
	r.add(opRecord{kind: kind, latency: time.Since(start), err: err, epoch: epoch})
}

func runMutateMix(r *run) (*service, error) {
	svc, err := r.setupService(filepath.Join(r.cfg.workDir, "store"))
	if err != nil {
		return nil, err
	}
	pool := r.in.sourcePool(newRNG(r.cfg.seed, 1))
	muts := &mutationGen{rng: newRNG(r.cfg.seed, 3), in: r.in, dead: make(map[edgeKey]bool)}
	// kcore is every other whole-graph read, which makes the slowest eighth
	// of the reads one kind: p90 then sits inside that class and not on
	// the edge between two.
	whole := []string{analytics.JobWCC, analytics.JobKCore, analytics.JobPageRank, analytics.JobKCore}
	// Warm-up: the first compaction turns the freshly built shards into the
	// canonical packed form every later merge starts from; merges before it
	// cost four times as much. One batch, one read to pay that merge, one
	// compaction, none of them timed.
	warm := muts.next()
	if status, rep, err := svc.call(0, 0, "/v1/mutate", mutateBody{Mutations: warm, Wait: true}); err != nil || status != http.StatusOK {
		return svc, fmt.Errorf("warm-up mutate: HTTP %d: %v %+v", status, err, rep)
	}
	r.batches = append(r.batches, warm)
	if _, err := svc.query(0, 0, &analytics.Job{Analytic: analytics.JobWCC}); err != nil {
		return svc, fmt.Errorf("warm-up read: %w", err)
	}
	if status, rep, err := svc.call(0, 0, "/v1/admin/compact", struct{}{}); err != nil || status != http.StatusOK || !rep.Compacted {
		return svc, fmt.Errorf("warm-up compaction: HTTP %d: %v %+v", status, err, rep)
	}
	if err := r.baseline(svc); err != nil {
		return svc, err
	}
	// One client, strictly ordered, so the graph every read saw is known:
	// the batches acknowledged before it. A round is cyclesPerRound cycles
	// and ends with a compaction and a snapshot, so every round — and the
	// run — stops in the same state: overlay empty, one copy of each shard
	// resident.
	r.clients(1, func(_, round int) int {
		ops := 0
		for i := 0; i < cyclesPerRound; i++ {
			cycle := round*cyclesPerRound + i
			batch := muts.next()
			op := r.opID()
			root := r.tr.start(0, op, "op.mutate")
			start := time.Now()
			status, rep, err := svc.call(op, root, "/v1/mutate", mutateBody{Mutations: batch, Wait: true})
			if err == nil && (status != http.StatusOK || rep.State != serve.StateDone) {
				err = fmt.Errorf("HTTP %d state %q: %s%s", status, rep.State, rep.Err, rep.AdmissionError)
			}
			if err == nil && rep.Result.Applied != uint64(len(batch)) {
				err = fmt.Errorf("batch of %d acknowledged %d records", len(batch), rep.Result.Applied)
			}
			r.tr.end(root)
			r.add(opRecord{kind: "mutate", latency: time.Since(start), err: err, epoch: len(r.batches)})
			if err != nil {
				return 0 // the graph is now unknown; nothing later could be checked
			}
			r.batches = append(r.batches, batch)
			epoch := len(r.batches)

			// The read right after the acknowledgement starts at a vertex
			// the batch touched: its answer must already reflect the batch.
			touched := &analytics.Job{Analytic: analytics.JobBFS, Sources: []uint32{firstInsert(batch).Src}}
			r.sendQuery(svc, touched, epoch)
			src := pool[cycle%len(pool)]
			r.sendQuery(svc, &analytics.Job{Analytic: analytics.JobSSSP, Sources: []uint32{src},
				MaxWeight: 64, WeightSeed: uint64(src)}, epoch)
			r.sendQuery(svc, &analytics.Job{Analytic: whole[cycle%len(whole)]}, epoch)
			// The repeat is answered from the cache — which is only right
			// because the cache is keyed by epoch.
			again := *touched
			r.sendQuery(svc, &again, epoch)
			ops += 5
		}
		epoch := len(r.batches)
		r.sendAdmin(svc, "compact", "/v1/admin/compact", epoch, func(rep *reply) error {
			if !rep.Compacted {
				return fmt.Errorf("compaction skipped with no writer racing it")
			}
			return nil
		})
		r.sendAdmin(svc, "snapshot", "/v1/admin/snapshot", epoch, func(rep *reply) error {
			if !rep.Persisted {
				return fmt.Errorf("snapshot not persisted: %s", rep.Detail)
			}
			return nil
		})
		return ops + 2
	})
	return svc, nil
}
