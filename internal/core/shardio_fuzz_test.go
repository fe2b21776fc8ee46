package core

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"
)

// fuzzShardBytes loads the committed valid v2 shard encoding for the seed
// corpus (testdata/shard_v2.bin; spinning up a rank group inside the fuzz
// worker's registration path stalls the engine, so the seed is a file).
func fuzzShardBytes(tb testing.TB) []byte {
	enc, err := os.ReadFile("testdata/shard_v2.bin")
	if err != nil {
		tb.Fatal(err)
	}
	return enc
}

// FuzzShardSuperblock hammers the sectioned shard decoder: it must never
// panic or allocate past the input, and any accepted graph must pass
// Validate (LoadShardStateBytes runs it) and re-encode decodably. The seed
// corpus covers the adversarial shapes the store can meet on disk: a torn
// write (truncation at every phase boundary), a bitflipped checksum, a
// bitflipped payload, a truncated section, and a lying section length.
func FuzzShardSuperblock(f *testing.F) {
	valid := fuzzShardBytes(f)
	f.Add(valid)
	// Torn writes: cut inside the superblock, inside the section table, and
	// inside the payloads.
	f.Add(valid[:7])
	f.Add(valid[:shardSuperblock+3])
	f.Add(valid[:shardSuperblock+numShardSections*shardSectionHdr/2])
	f.Add(valid[:len(valid)-9])
	// Bitflipped section checksum (first section's crc word).
	flip := bytes.Clone(valid)
	flip[shardSuperblock+4] ^= 0x40
	f.Add(flip)
	// Bitflipped payload byte.
	flip = bytes.Clone(valid)
	flip[len(flip)-3] ^= 0x08
	f.Add(flip)
	// Truncated section: shrink the last section's length so the payloads
	// no longer line up.
	short := bytes.Clone(valid)
	last := shardSuperblock + (numShardSections-1)*shardSectionHdr
	binary.LittleEndian.PutUint64(short[last+8:], 0)
	f.Add(short)
	// Lying section length: the first section claims more than remains.
	lie := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(lie[shardSuperblock+8:], 1<<40)
	f.Add(lie)
	// A v1-framed input (the retired pre-store format) is a reject case.
	v1 := []byte{0x44, 0x52, 0x53, 0x47, 1, 0, 0, 0, 12, 0, 0, 0, 0, 0, 0, 0}
	f.Add(v1)

	f.Fuzz(func(t *testing.T, data []byte) {
		g, wm, err := LoadShardStateBytes(data)
		if err != nil {
			return
		}
		// Accepted input: the graph is structurally valid (the decoder ran
		// Validate) and round-trips through the encoder.
		enc, err := EncodeShardState(g, wm)
		if err != nil {
			t.Fatalf("accepted graph fails to re-encode: %v", err)
		}
		g2, wm2, err := LoadShardStateBytes(enc)
		if err != nil {
			t.Fatalf("re-encoded accepted graph fails to load: %v", err)
		}
		if wm2 != wm || g2.NLoc != g.NLoc || g2.NGst != g.NGst || g2.MGlobal != g.MGlobal {
			t.Fatalf("roundtrip drift: %d/%d vs %d/%d", g2.NLoc, g2.NGst, g.NLoc, g.NGst)
		}
	})
}
