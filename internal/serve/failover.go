package serve

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/analytics"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/obs"
)

// Failover state machine. The cluster separates compute slots (one per
// shard; the SPMD group size every kernel sees, fixed forever) from hosts
// (replica holders; they can die). The supervisor loops generations:
//
//	form view  -> assign each slot the first live host in its shard's
//	              replica list (placement order); no live replica for
//	              some shard => terminal ErrShardLost
//	run group  -> fresh transports, membership broadcast as round one,
//	              every slot parks in rankLoop over its host's replica
//	clean exit -> shutdown was broadcast; the cluster is done
//	group dies -> consume condemned hosts (explicit Kill) or attribute
//	              the failure to a host via the slots' CommErrors, mark
//	              it dead, loop — the next generation serves the same
//	              shards from the surviving replicas
//
// Degraded-mode invariants: the slot count (and so every kernel's view of
// the group) never changes; a host serving c slots splits its worker
// threads c ways; shards are immutable after the initial build+replicate,
// so promotion is a pointer swap, not a data transfer. Misattribution of
// an organic TCP failure is possible (a cascade can implicate a healthy
// host) but never unsafe: answers never depend on which host serves a
// slot, and a still-dead host fails the next generation too, so the
// supervisor converges — each failover removes at least one host, and
// there are finitely many.

// supervise is the generation loop. It owns cl.err and cl.dead.
func (cl *Cluster) supervise(cfg ClusterConfig, built chan<- error) {
	var termErr error
	var lastGenErr error
	var prevView *comm.Membership
	for gen := uint64(0); ; gen++ {
		view, viewErr := cl.formView(gen)
		if viewErr != nil {
			// Unrecoverable: keep the generation error that got us here
			// alongside the placement verdict so callers can still see
			// the originating CommError kind.
			termErr = viewErr
			if lastGenErr != nil {
				termErr = errors.Join(viewErr, lastGenErr)
			}
			break
		}
		if gen > 0 {
			cl.failover.Failovers.Add(1)
			if prevView != nil {
				moved := uint64(0)
				for s := range view.Slots {
					if view.Slots[s] != prevView.Slots[s] {
						moved++
					}
				}
				cl.failover.SlotsPromoted.Add(moved)
			}
		}
		prevView = view
		cl.generation.Store(gen)

		genErr := cl.runGeneration(cfg, gen, view, built)
		if genErr == nil {
			// Clean shutdown (the quit broadcast drained the group).
			termErr = nil
			break
		}
		lastGenErr = genErr
		if gen == 0 && cl.buildOK.Load() != int64(cl.size) {
			// The group never finished build+replicate; there is nothing
			// to fail over to.
			termErr = genErr
			break
		}
		condemned := cl.applyCondemned()
		if condemned == 0 {
			host, ok := attributeFailure(genErr, view)
			if !ok {
				// Not a communication failure we can pin on a host
				// (e.g. a kernel error): terminal, as before replication.
				termErr = genErr
				break
			}
			cl.markHostDead(host)
		}
	}
	cl.errMu.Lock()
	cl.err = termErr
	cl.errMu.Unlock()
	close(cl.dead)
}

// formView consumes any condemned hosts and assigns every slot the first
// live host in its shard's replica list. A shard with no live replica is
// unrecoverable.
func (cl *Cluster) formView(gen uint64) (*comm.Membership, error) {
	cl.applyCondemned()
	cl.hostMu.Lock()
	defer cl.hostMu.Unlock()
	view := &comm.Membership{Epoch: gen, Slots: make([]int32, cl.size)}
	for h, hs := range cl.hosts {
		if !hs.alive {
			view.Dead = append(view.Dead, int32(h))
		}
	}
	for s := 0; s < cl.size; s++ {
		host := -1
		for _, r := range cl.placement.ReplicaRanks(s) {
			if cl.hosts[r].alive {
				host = r
				break
			}
		}
		if host < 0 {
			return nil, fmt.Errorf("%w: shard %d (all %d replicas dead)", ErrShardLost, s, cl.replicas)
		}
		view.Slots[s] = int32(host)
	}
	return view, nil
}

// applyCondemned marks hosts condemned through Kill as dead, returning how
// many flipped.
func (cl *Cluster) applyCondemned() int {
	cl.hostMu.Lock()
	defer cl.hostMu.Unlock()
	n := 0
	for _, h := range cl.condemned {
		if cl.hosts[h].alive {
			cl.hosts[h].alive = false
			n++
		}
	}
	cl.condemned = cl.condemned[:0]
	if n > 0 {
		cl.failover.HostsLost.Add(uint64(n))
	}
	return n
}

// markHostDead records an attributed host death.
func (cl *Cluster) markHostDead(host int) {
	cl.hostMu.Lock()
	defer cl.hostMu.Unlock()
	if host >= 0 && host < len(cl.hosts) && cl.hosts[host].alive {
		cl.hosts[host].alive = false
		cl.failover.HostsLost.Add(1)
	}
}

// runGeneration builds one compute group over the view and runs it to
// completion: transports, communicators, membership broadcast, rank loops.
// It returns nil only on a clean shutdown.
func (cl *Cluster) runGeneration(cfg ClusterConfig, gen uint64, view *comm.Membership, built chan<- error) error {
	size := cl.size
	var trs []comm.Transport
	if cfg.Transports != nil {
		var err error
		trs, err = cfg.Transports(gen, size)
		if err != nil {
			err = fmt.Errorf("serve: generation %d transports: %w", gen, err)
			if gen == 0 {
				for i := 0; i < size; i++ {
					built <- err
				}
			}
			return err
		}
	} else {
		lg := comm.NewLocalGroup(size)
		trs = make([]comm.Transport, size)
		for i := range lg {
			trs[i] = lg[i]
		}
	}
	if cfg.WrapTransport != nil {
		for i := range trs {
			trs[i] = cfg.WrapTransport(gen, i, trs[i])
		}
	}
	cl.setLiveGroup(trs, view)
	defer func() {
		cl.setLiveGroup(nil, nil)
		for _, tr := range trs {
			_ = tr.Close()
		}
	}()

	comms := make([]*comm.Comm, size)
	for i := range trs {
		c := comm.New(trs[i])
		c.SetTracer(cfg.Trace.Rank(i))
		c.SetMetrics(obs.NewMetrics())
		comms[i] = c
	}
	viewBytes := view.Encode()
	errs := comm.RunOnAll(comms, func(c *comm.Comm) error {
		return cl.slotMain(cfg, gen, viewBytes, c, built)
	})
	for _, err := range errs {
		if err != nil {
			return &generationError{gen: gen, slots: errs}
		}
	}
	return nil
}

// setLiveGroup publishes (or clears) the running generation's transports
// and view so Kill can abort a live group.
func (cl *Cluster) setLiveGroup(trs []comm.Transport, view *comm.Membership) {
	cl.hostMu.Lock()
	cl.curTransports = trs
	cl.curView = view
	cl.hostMu.Unlock()
}

// slotMain is one compute slot's life in one generation: agree on the
// membership view (round one), locate — or at generation zero build and
// replicate — the slot's shard, then park in the dispatch loop.
func (cl *Cluster) slotMain(cfg ClusterConfig, gen uint64, viewBytes []byte, c *comm.Comm, built chan<- error) error {
	slot := c.Rank()
	buildFail := func(err error) error {
		if gen == 0 {
			built <- err
		}
		return err
	}

	// Round one of every generation: the membership broadcast. Slot 0
	// feeds the supervisor's encoded view; every slot decodes and
	// validates it, so the whole group provably shares one view before
	// any job traffic flows.
	var msg []byte
	if slot == 0 {
		msg = viewBytes
	}
	msg, err := comm.Bcast(c, msg, 0)
	if err != nil {
		return buildFail(err)
	}
	view, err := comm.DecodeMembership(msg)
	if err != nil {
		return buildFail(fmt.Errorf("serve: slot %d: %w", slot, err))
	}
	if len(view.Slots) != cl.size || view.Epoch != gen {
		return buildFail(fmt.Errorf("serve: slot %d got view for epoch %d/%d slots, want %d/%d",
			slot, view.Epoch, len(view.Slots), gen, cl.size))
	}
	host := int(view.Slots[slot])
	// A host serving several slots after a failover splits its worker
	// threads between them — the degraded group runs every kernel at the
	// same group size on fewer cores.
	ctx := core.NewCtx(c, splitThreads(cfg.Threads, view.Collocated(int32(host))))
	// The slot's kernel plans live and die with this generation's Ctx: a
	// re-formed group starts cold on every slot at once.
	ctx.Plans = core.NewPlans(&cl.planStats[slot])

	var st *shardState
	if gen == 0 && cl.bootMan != nil {
		// Boot from the persistent shard store: every host loads its shard
		// replicas from verified local files — no ingestion, no partitioning
		// shuffle, no replication Alltoallv. A corrupt or missing file is
		// quarantined and repaired from a healthy sibling replica before
		// loading. At generation zero host == slot, so the primary is the
		// host's own shard.
		shards, err := cl.bootShards(host)
		if err != nil {
			return buildFail(err)
		}
		primary := shards[slot]
		delete(shards, slot)
		st = cl.storeShards(slot, primary, shards)
		cl.fastForwardHost(host, cl.bootMan.Watermark)
		if slot == 0 {
			cl.n = primary.NGlobal
			cl.m.Store(cl.bootMan.MGlobal)
			cl.builtIn = time.Since(cl.start)
		}
		cl.buildOK.Add(1)
		built <- nil
	} else if gen == 0 {
		n, err := core.ScanNumVertices(ctx, cfg.Source)
		if err != nil {
			return buildFail(err)
		}
		if cfg.NumVertices > n {
			n = cfg.NumVertices
		}
		pt, err := core.MakePartitioner(ctx, cfg.Source, cfg.Partition, n, cfg.Seed)
		if err != nil {
			return buildFail(err)
		}
		g, _, err := core.Build(ctx, cfg.Source, pt)
		if err != nil {
			return buildFail(err)
		}
		backups, err := cl.replicateShards(ctx, g)
		if err != nil {
			return buildFail(fmt.Errorf("serve: replicating shard %d: %w", slot, err))
		}
		st = cl.storeShards(slot, g, backups)
		if slot == 0 {
			cl.n = g.NGlobal
			cl.m.Store(g.MGlobal)
			cl.builtIn = time.Since(cl.start)
		}
		cl.buildOK.Add(1)
		built <- nil
	} else {
		st = cl.shardFor(host, slot)
		if st == nil {
			return fmt.Errorf("serve: host %d holds no replica of shard %d", host, slot)
		}
	}
	sc := &slotState{state: st, host: host}
	// The host's lowest slot in this view filter-applies every mutate batch
	// to the host's unserved backup replicas, so a later promotion serves a
	// shard that never missed a batch.
	if lowestSlotOf(view, host) == slot {
		sc.backups = cl.unservedBackups(view, host)
	}
	return cl.rankLoop(ctx, sc)
}

// lowestSlotOf returns the smallest slot index the view assigns to host.
func lowestSlotOf(view *comm.Membership, host int) int {
	for s, h := range view.Slots {
		if int(h) == host {
			return s
		}
	}
	return -1
}

// unservedBackups lists host's shard replicas that no slot of the view
// serves from this host — the backups a mutate must keep current.
func (cl *Cluster) unservedBackups(view *comm.Membership, host int) []backupRef {
	cl.hostMu.Lock()
	defer cl.hostMu.Unlock()
	var out []backupRef
	for s, st := range cl.hosts[host].shards {
		if int(view.Slots[s]) != host {
			out = append(out, backupRef{shard: s, st: st})
		}
	}
	return out
}

// splitThreads divides a host's worker budget across its collocated slots.
func splitThreads(threads, collocated int) int {
	if threads <= 0 {
		threads = runtime.NumCPU()
	}
	if collocated < 1 {
		collocated = 1
	}
	t := threads / collocated
	if t < 1 {
		t = 1
	}
	return t
}

// replicateShards ships this slot's packed shard to its backup hosts and
// receives the shards this host backs up, in one Alltoallv over the packed
// SaveShard bytes. With no replication it is a no-op on every slot, so the
// group stays collectively consistent.
func (cl *Cluster) replicateShards(ctx *core.Ctx, g *core.Graph) (map[int]*core.Graph, error) {
	if cl.replicas <= 1 {
		return nil, nil
	}
	slot := ctx.Rank()
	size := ctx.Size()
	var buf bytes.Buffer
	if err := core.SaveShard(&buf, g); err != nil {
		return nil, err
	}
	packed := buf.Bytes()
	counts := make([]int, size)
	for _, r := range cl.placement.ReplicaRanks(slot)[1:] {
		counts[r] = len(packed)
	}
	send := make([]byte, 0, len(packed)*(cl.replicas-1))
	for d := 0; d < size; d++ {
		if counts[d] > 0 {
			send = append(send, packed...)
		}
	}
	recv, rCounts, err := comm.Alltoallv(ctx.Comm, send, counts)
	if err != nil {
		return nil, err
	}
	out := make(map[int]*core.Graph, cl.replicas-1)
	off := 0
	for src := 0; src < size; src++ {
		n := rCounts[src]
		if n == 0 {
			continue
		}
		rg, err := core.LoadShard(bytes.NewReader(recv[off : off+n]))
		off += n
		if err != nil {
			return nil, fmt.Errorf("replica of shard %d: %w", src, err)
		}
		out[src] = rg
	}
	return out, nil
}

// storeShards records a host's primary shard and received backups, each
// wrapped in a fresh overlay state, and returns the primary's state.
func (cl *Cluster) storeShards(host int, primary *core.Graph, backups map[int]*core.Graph) *shardState {
	cl.hostMu.Lock()
	defer cl.hostMu.Unlock()
	hs := cl.hosts[host]
	st := newShardState(primary, &cl.merge)
	hs.shards[host] = st // slot index == shard index == gen-0 host
	for s, g := range backups {
		hs.shards[s] = newShardState(g, &cl.merge)
	}
	return st
}

// shardFor returns host's replica state of shard s, or nil.
func (cl *Cluster) shardFor(host, s int) *shardState {
	cl.hostMu.Lock()
	defer cl.hostMu.Unlock()
	return cl.hosts[host].shards[s]
}

// Kill condemns a host: it is marked for exclusion from the next view and,
// if it currently serves a slot, one of its transports is aborted so the
// running generation fails promptly. Kill is the test and admin seam for
// "this machine died" — on a real deployment the CommError taxonomy
// detects the death organically and attribution does the condemning.
func (cl *Cluster) Kill(host int) error {
	cl.hostMu.Lock()
	if host < 0 || host >= len(cl.hosts) {
		cl.hostMu.Unlock()
		return fmt.Errorf("serve: no host %d", host)
	}
	if !cl.hosts[host].alive {
		cl.hostMu.Unlock()
		return fmt.Errorf("serve: host %d already dead", host)
	}
	cl.condemned = append(cl.condemned, host)
	trs, view := cl.curTransports, cl.curView
	cl.hostMu.Unlock()
	if trs == nil || view == nil {
		return nil // between generations; the mark lands at the next view
	}
	for slot, h := range view.Slots {
		if int(h) == host {
			if a, ok := trs[slot].(interface{ Abort() }); ok {
				a.Abort()
			}
			// An idle rank 0 parks on the submit channel, not in a
			// collective; a no-op nudge job pushes it into a broadcast
			// round where it observes the aborted group. A generation that
			// outlives the race simply answers the nudge with one empty
			// round.
			go func() {
				p := &pending{job: &analytics.Job{Analytic: jobNudge}, resp: make(chan outcome, 1)}
				select {
				case cl.submit <- p:
				case <-cl.dead:
				}
			}()
			return nil
		}
	}
	return nil // host serves no slot; nothing to abort
}

// generationError is a failed generation's per-slot error vector. Unwrap
// exposes the non-nil slot errors so errors.Is/As reach the originating
// *comm.CommError through the cluster-down wrapper.
type generationError struct {
	gen   uint64
	slots []error
}

func (e *generationError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "serve: generation %d failed:", e.gen)
	for s, err := range e.slots {
		if err != nil {
			fmt.Fprintf(&b, " slot %d: %v;", s, err)
		}
	}
	return strings.TrimSuffix(b.String(), ";")
}

func (e *generationError) Unwrap() []error {
	// Originating failures first, bystander aborts last, so errors.As
	// surfaces the kind that actually killed the group (downErr callers
	// discriminate fatal vs timeout vs corrupt through this ordering).
	var out, aborted []error
	for _, err := range e.slots {
		if err == nil {
			continue
		}
		if comm.Classify(err) == comm.KindAborted {
			aborted = append(aborted, err)
			continue
		}
		out = append(out, err)
	}
	return append(out, aborted...)
}

// attributeFailure maps a failed generation to the host that caused it.
// Each slot carrying a CommError casts one vote: for the implicated peer's
// host when the error names a peer (TCP attaches Peer to per-connection
// failures), otherwise for the observing slot's own host (an injected or
// local fatal). Aborted bystanders do not vote. The
// majority wins; ties break to the lowest host so the outcome is
// deterministic.
func attributeFailure(err error, view *comm.Membership) (int, bool) {
	var ge *generationError
	if !errors.As(err, &ge) {
		return -1, false
	}
	votes := make(map[int]int)
	for slot, e := range ge.slots {
		if e == nil {
			continue
		}
		var ce *comm.CommError
		if !errors.As(e, &ce) {
			continue
		}
		if ce.Kind == comm.KindAborted {
			continue
		}
		blamed := slot
		if ce.Peer >= 0 && ce.Peer < len(view.Slots) {
			blamed = ce.Peer
		}
		votes[int(view.Slots[blamed])]++
	}
	best, bestN := -1, 0
	for h, n := range votes {
		if n > bestN || (n == bestN && (best < 0 || h < best)) {
			best, bestN = h, n
		}
	}
	return best, best >= 0
}
