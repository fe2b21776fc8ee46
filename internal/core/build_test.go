package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/gen"
	"repro/internal/partition"
)

// buildDigestGolden holds, per (partition, rank count), the SHA-256 of the
// ranks' SaveShard bytes concatenated in rank order, for the graph of
// TestBuildBytesIndependentOfThreads built with one thread per rank.
var buildDigestGolden = map[string]string{
	"vertex-block/p=1": "3b8775e26a84a4c19c4e358fad7da92821172a48a75ac2612e88e38a967345c7",
	"vertex-block/p=2": "e3304b04e633369bca211f02c3c403cc8c60e21b1e81c019841de8d5036db99c",
	"vertex-block/p=3": "4488597199c3a852521a91c1adb6d2276e7b0be7631144132cca5945ffa0c5bf",
	"edge-block/p=1":   "43584acbebf33963941baed5dd1d1101cf655ad0900928a74434a6eb4e6dbbb4",
	"edge-block/p=2":   "b700c738dda08d3d2947fd494393b35602a3be65be36a16a59493965867c620f",
	"edge-block/p=3":   "c0e738b5a86a2403c965a440e72b572c29725e9045ba4329f2f93391a6e5944f",
	"random/p=1":       "6e8d4621b045cebb552708cda776f730cf92e2bbffcff35885922a2ecef3cb80",
	"random/p=2":       "9c31d1e5b1e545374c7328fdc2fee6ee76cd8d853eb3d62eecf5408e9724ea60",
	"random/p=3":       "de5790a522f896dd25398b7e45f96299e819620b112835958f597d68583801d4",
}

// TestBuildBytesIndependentOfThreads pins the built shards byte for byte:
// the exchange keeps each destination's pairs in source-chunk order and
// the conversion's counting sort keeps arrival order, so the thread count
// of a rank's pool must not change a single byte of what it saves.
func TestBuildBytesIndependentOfThreads(t *testing.T) {
	src := SpecSource{Spec: gen.Spec{Kind: gen.RMAT, NumVertices: 3000, NumEdges: 1 << 15, Seed: 11}}
	for _, kind := range []partition.Kind{partition.VertexBlock, partition.EdgeBlock, partition.Random} {
		for _, p := range []int{1, 2, 3} {
			key := fmt.Sprintf("%v/p=%d", kind, p)
			for _, threads := range []int{1, 2, 4} {
				shards := make([][]byte, p)
				err := comm.RunLocal(p, func(c *comm.Comm) error {
					ctx := NewCtx(c, threads)
					pt, err := MakePartitioner(ctx, src, kind, src.Spec.NumVertices, 5)
					if err != nil {
						return err
					}
					g, _, err := Build(ctx, src, pt)
					if err != nil {
						return err
					}
					var buf bytes.Buffer
					if err := SaveShard(&buf, g); err != nil {
						return err
					}
					shards[c.Rank()] = buf.Bytes()
					return nil
				})
				if err != nil {
					t.Fatalf("%s threads=%d: %v", key, threads, err)
				}
				sum := sha256.Sum256(bytes.Join(shards, nil))
				if got := hex.EncodeToString(sum[:]); got != buildDigestGolden[key] {
					t.Errorf("%s threads=%d: shard digest %s, want %s", key, threads, got, buildDigestGolden[key])
				}
			}
		}
	}
}
