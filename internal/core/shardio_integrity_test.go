package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/gen"
	"repro/internal/partition"
)

// goldenSpec is the small graph the shard codec tests build.
var goldenSpec = gen.Spec{Kind: gen.RMAT, NumVertices: 128, NumEdges: 1024, Seed: 99}

// TestLoadShardRejectsV1 pins the retired pre-store format: a version-1
// superblock is refused with the unsupported-version error before anything
// behind it is read, so a v1 body claiming absurd counts costs no more than
// the error value.
func TestLoadShardRejectsV1(t *testing.T) {
	v1 := binary.LittleEndian.AppendUint32(nil, shardMagic)
	v1 = binary.LittleEndian.AppendUint32(v1, 1)
	v1 = binary.LittleEndian.AppendUint64(v1, 1<<40)   // v1 partitioner length
	v1 = append(v1, bytes.Repeat([]byte{0xff}, 64)...) // v1 scalar header: every count maximal
	check := func(b []byte) error {
		_, _, err := LoadShardState(bytes.NewReader(b))
		if err == nil || !strings.Contains(err.Error(), "unsupported shard version 1") {
			return fmt.Errorf("version-1 stream: got %v, want the unsupported-version error", err)
		}
		return nil
	}
	if err := check(v1); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { _, _, _ = LoadShardStateBytes(v1) }); allocs > 4 {
		t.Fatalf("rejecting a version-1 stream made %.0f allocations; the body must not be decoded", allocs)
	}
	// A current stream relabelled as version 1 is refused the same way.
	relabelled := bytes.Clone(fuzzShardBytes(t))
	binary.LittleEndian.PutUint32(relabelled[4:8], 1)
	if err := check(relabelled); err != nil {
		t.Fatal(err)
	}
}

// sameShard compares every structural array of two shards.
func sameShard(got, want *Graph) error {
	if got.NGlobal != want.NGlobal || got.MGlobal != want.MGlobal ||
		got.NLoc != want.NLoc || got.NGst != want.NGst || got.Rank() != want.Rank() {
		return fmt.Errorf("header mismatch: got n=%d m=%d nloc=%d ngst=%d rank=%d",
			got.NGlobal, got.MGlobal, got.NLoc, got.NGst, got.Rank())
	}
	for i := range want.OutIdx {
		if got.OutIdx[i] != want.OutIdx[i] {
			return fmt.Errorf("OutIdx[%d] differs", i)
		}
	}
	for i := range want.OutEdges {
		if got.OutEdges[i] != want.OutEdges[i] {
			return fmt.Errorf("OutEdges[%d] differs", i)
		}
	}
	for i := range want.InIdx {
		if got.InIdx[i] != want.InIdx[i] {
			return fmt.Errorf("InIdx[%d] differs", i)
		}
	}
	for i := range want.InEdges {
		if got.InEdges[i] != want.InEdges[i] {
			return fmt.Errorf("InEdges[%d] differs", i)
		}
	}
	for i := range want.Unmap {
		if got.Unmap[i] != want.Unmap[i] {
			return fmt.Errorf("Unmap[%d] differs", i)
		}
	}
	for i := range want.GhostOwner {
		if got.GhostOwner[i] != want.GhostOwner[i] {
			return fmt.Errorf("GhostOwner[%d] differs", i)
		}
	}
	for v := uint32(0); v < want.NGlobal; v++ {
		if got.Part.Owner(v) != want.Part.Owner(v) {
			return fmt.Errorf("partitioner disagrees at %d", v)
		}
	}
	return nil
}

// TestLoadShardRejectsLyingCounts pins the OOM fix: a section header
// claiming more payload than the buffer holds is rejected with an error
// before any allocation sized by the header.
func TestLoadShardRejectsLyingCounts(t *testing.T) {
	err := comm.RunLocal(1, func(c *comm.Comm) error {
		ctx := NewCtx(c, 1)
		g, _, err := Build(ctx, SpecSource{Spec: goldenSpec}, partition.NewVertexBlock(128, 1))
		if err != nil {
			return err
		}
		enc, err := EncodeShardState(g, 7)
		if err != nil {
			return err
		}
		bad := bytes.Clone(enc)
		// First section header's length field: superblock is 16 bytes, then
		// kind+crc precede the u64 length.
		binary.LittleEndian.PutUint64(bad[16+8:], 1<<40)
		if _, err := LoadShardBytes(bad); err == nil {
			return fmt.Errorf("v2 stream with lying section length accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShardWatermarkRoundTrip pins that SaveShardState carries the
// replay watermark through the meta section.
func TestShardWatermarkRoundTrip(t *testing.T) {
	err := comm.RunLocal(2, func(c *comm.Comm) error {
		ctx := NewCtx(c, 1)
		g, _, err := Build(ctx, SpecSource{Spec: goldenSpec}, partition.NewRandom(128, 2, 5))
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := SaveShardState(&buf, g, 0xDEAD_BEEF); err != nil {
			return err
		}
		g2, wm, err := LoadShardStateBytes(buf.Bytes())
		if err != nil {
			return err
		}
		if wm != 0xDEAD_BEEF {
			return fmt.Errorf("watermark %#x, want 0xdeadbeef", wm)
		}
		return sameShard(g2, g)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShardChecksumCatchesBitflip pins the integrity property the store
// audit relies on: flipping any single sampled bit of a v2 stream makes
// LoadShardBytes fail (the per-section CRC32C, or a superblock validation,
// catches it) — corruption never silently loads.
func TestShardChecksumCatchesBitflip(t *testing.T) {
	err := comm.RunLocal(2, func(c *comm.Comm) error {
		ctx := NewCtx(c, 1)
		g, _, err := Build(ctx, SpecSource{Spec: goldenSpec}, partition.NewRandom(128, 2, 5))
		if err != nil {
			return err
		}
		enc, err := EncodeShardState(g, 3)
		if err != nil {
			return err
		}
		// Sample bit positions across the whole stream (every 251 bytes,
		// plus the last byte).
		for off := 0; off < len(enc); off += 251 {
			bad := bytes.Clone(enc)
			bad[off] ^= 0x10
			if _, err := LoadShardBytes(bad); err == nil {
				return fmt.Errorf("bitflip at byte %d loaded cleanly", off)
			}
		}
		bad := bytes.Clone(enc)
		bad[len(bad)-1] ^= 1
		if _, err := LoadShardBytes(bad); err == nil {
			return fmt.Errorf("bitflip in final byte loaded cleanly")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
