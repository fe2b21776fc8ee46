package serve

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/partition"
)

// shardBytes is what one shard's Table II structures occupy, computed from
// their lengths: both CSRs' index and edge arrays, the unmap and ghost-owner
// arrays, and the global-to-local map's table (a key and a value word per
// slot).
func shardBytes(g *core.Graph) uint64 {
	return 8*uint64(len(g.OutIdx)+len(g.InIdx)) +
		4*uint64(len(g.OutEdges)+len(g.InEdges)+len(g.Unmap)+len(g.GhostOwner)) +
		8*uint64(g.Map.Cap())
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestResidentClusterHoldsOnlyItsGraph pins what a freshly built resident
// cluster keeps alive: its shards and little else. The build's edge
// shuffles are as large as the CSRs they feed; a communicator that kept a
// shuffle's send buffer would pin about one CSR edge array per rank for the
// cluster's life, and this bound fails.
func TestResidentClusterHoldsOnlyItsGraph(t *testing.T) {
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: 1 << 14, NumEdges: 36 << 14, Seed: 7}
	before := liveHeap()
	cl, err := NewCluster(ClusterConfig{
		Ranks: 2, Threads: 1, Source: core.SpecSource{Spec: spec},
		Partition: partition.Random, Seed: 7, Epoch: 1,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cl.Close()
	var shards int64
	for s := range 2 {
		shards += int64(shardBytes(cl.shardFor(s, s).base))
	}
	grown := liveHeap() - before
	limit := shards + shards*15/100 + 1<<20
	t.Logf("live heap grew %.2f MiB for %.2f MiB of shards (limit %.2f MiB)",
		float64(grown)/(1<<20), float64(shards)/(1<<20), float64(limit)/(1<<20))
	if grown > limit {
		t.Fatalf("live heap grew %d B for %d B of shards: more than 1.15x + 1 MiB", grown, shards)
	}
}
