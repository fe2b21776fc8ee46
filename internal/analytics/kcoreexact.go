package analytics

import (
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/obs"
)

// Exact k-core decomposition by bucketed peeling: the same distributed
// bucket structure Δ-stepping uses, keyed by remaining undirected degree
// (Δ=1). The group repeatedly settles the globally smallest degree bucket
// k and peels its vertices — their coreness is exactly k — shipping one
// aggregated degree decrement per (ghost, sub-round). A vertex whose
// degree drops below the bucket being peeled is clamped into bucket k (its
// coreness can't be smaller than the floor already settled), which is
// precisely the running-max rule of the sequential peel. Unlike
// KCoreApprox's powers-of-two upper bounds, this yields the exact coreness
// of every vertex.

// KCoreExactResult carries exact per-vertex coreness and run metadata.
type KCoreExactResult struct {
	// Coreness[v] is the exact coreness of owned local vertex v under
	// undirected degree (parallel edges counted per copy, self-loops twice,
	// matching KCoreApprox's degree convention).
	Coreness []uint32
	// MaxCore is the global maximum coreness (the degeneracy).
	MaxCore uint32
	// Rounds is the number of peel sub-rounds executed.
	Rounds int
	// Buckets records the bucket structure's work.
	Buckets obs.BucketStats
	// Traversal records the decrement exchange's representation choices and
	// wire volume.
	Traversal obs.TraversalStats
}

// KCoreExact computes the exact coreness of every owned vertex.
// Collective structure per bucket: one Allreduce picking the bucket, one
// Allreduce + decrement exchange per peel sub-round.
func KCoreExact(ctx *core.Ctx, g *core.Graph) (*KCoreExactResult, error) {
	res, _, err := kcoreExact(ctx, g)
	return res, err
}

// kcoreExact is KCoreExact; it also hands back the spent bucket structure,
// whose high-water marks tests bound.
func kcoreExact(ctx *core.Ctx, g *core.Graph) (*KCoreExactResult, *bucketStore, error) {
	if err := require1D(g, "exact k-core"); err != nil {
		return nil, nil, err
	}
	eng := newFrontierEngine(ctx, g)
	red, err := comm.AllreduceSlice(ctx.Comm, []uint64{uint64(g.NGst)}, comm.OpSum)
	if err != nil {
		return nil, nil, err
	}
	eng.gGhosts = red[0]
	bc := newBucketComm(eng)

	deg := make([]uint64, g.NLoc)
	bk := newBucketStore(int(g.NLoc), 1, bucketWindow)
	for v := uint32(0); v < g.NLoc; v++ {
		deg[v] = g.OutDegree(v) + g.InDegree(v)
		bk.update(v, deg[v])
	}
	coreness := make([]uint32, g.NLoc)
	removed := make([]bool, g.NLoc)
	// Per-sub-round decrement accumulator per ghost; touched tracks the
	// non-zero slots so resets never sweep all of NGst.
	decCount := make([]uint64, g.NGst)
	var touched []uint32

	rounds := 0
	tr := ctx.Comm.Tracer()
	var extracted []uint32
	for {
		k, ok, err := bk.nextBucket(ctx)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			break
		}
		mark := tr.Now()
		// Peel bucket k to a fixed point: decrements can drag more vertices
		// down into (the clamped) bucket k, so extract until the whole group
		// comes up empty.
		for {
			extracted = bk.extract(k, extracted[:0])
			gActive, err := comm.Allreduce(ctx.Comm, uint64(len(extracted)), comm.OpSum)
			if err != nil {
				return nil, nil, err
			}
			if gActive == 0 {
				break
			}
			rounds++
			bk.stats.InnerRounds++
			// Mark the whole batch removed first: edges between two
			// simultaneously peeled vertices decrement neither (both already
			// have their coreness), and every rank sees the same sub-round
			// boundary, so remote simultaneous peels resolve identically.
			for _, v := range extracted {
				coreness[v] = uint32(k)
				removed[v] = true
			}
			touched = touched[:0]
			var edges uint64
			dec := func(u uint32) {
				if u < g.NLoc {
					if !removed[u] {
						deg[u]--
						bk.update(u, deg[u])
					}
					return
				}
				gi := u - g.NLoc
				if decCount[gi] == 0 {
					touched = append(touched, u)
				}
				decCount[gi]++
			}
			for _, v := range extracted {
				for _, u := range g.OutNeighbors(v) {
					dec(u)
				}
				for _, u := range g.InNeighbors(v) {
					dec(u)
				}
				edges += g.OutDegree(v) + g.InDegree(v)
			}
			bk.stats.LightRelaxations += edges
			err = bc.exchange(ctx, touched,
				func(u uint32) uint64 { return decCount[u-g.NLoc] },
				func(v uint32, c uint64) error {
					if !removed[v] {
						if c >= deg[v] {
							deg[v] = 0
						} else {
							deg[v] -= c
						}
						bk.update(v, deg[v])
					}
					return nil
				})
			if err != nil {
				return nil, nil, err
			}
			for _, u := range touched {
				decCount[u-g.NLoc] = 0
			}
		}
		tr.Span(SpanKCorePeel, mark, int64(k))
	}

	var localMax uint64
	for _, c := range coreness {
		if uint64(c) > localMax {
			localMax = uint64(c)
		}
	}
	gMax, err := comm.Allreduce(ctx.Comm, localMax, comm.OpMax)
	if err != nil {
		return nil, nil, err
	}
	return &KCoreExactResult{
		Coreness:  coreness,
		MaxCore:   uint32(gMax),
		Rounds:    rounds,
		Buckets:   bk.stats,
		Traversal: eng.stats,
	}, bk, nil
}
