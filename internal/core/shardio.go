package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/partition"
)

// Shard serialization: a built Graph can be written per rank and reloaded
// later, skipping ingestion and the two exchange phases entirely. The
// format is versioned and self-describing (it embeds the partitioner), so
// a saved shard set reloads on the same rank count with full analytic
// capability.
//
// Version 2 is the persistent-store layout: a superblock names every
// section (kind, CRC32C, length) up front, and the payloads follow as the
// same packed little-endian arrays the in-memory CSR holds — so loading is
// one bulk read plus checksum passes, with no per-record decode, and a
// single flipped bit anywhere in the file is caught by the section
// checksums before a graph is built from it. Version 1 (the pre-store
// stream format, which nothing has written since the store landed) is
// rejected like any other unknown version.
//
// v2 layout (all little-endian):
//
//	u32 magic "GSRD"   u32 version = 2
//	u32 sectionCount   u32 reserved
//	sectionCount × { u32 kind, u32 crc32c, u64 length }
//	payloads, back to back, in section-table order
//
// Sections: partitioner blob, meta (rank, NGlobal, MGlobal, NLoc, NGst,
// replay watermark), OutIdx, OutEdges, InIdx, InEdges, Unmap,
// GhostOwner.

const (
	shardMagic   = 0x47535244 // "GSRD"
	shardVersion = 2

	shardSuperblock = 16 // magic, version, sectionCount, reserved
	shardSectionHdr = 16 // kind, crc32c, length
)

// Section kinds of the v2 layout, in file order.
const (
	secPartitioner = 1 + iota
	secMeta
	secOutIdx
	secOutEdges
	secInIdx
	secInEdges
	secUnmap
	secGhostOwner

	numShardSections = 8
)

// shardMetaBytes is the fixed meta-section size: rank u32, NGlobal u32,
// MGlobal u64, NLoc u32, NGst u32, watermark u64.
const shardMetaBytes = 32

// castagnoli is the CRC32C table (the checksum object stores use; hardware
// accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ShardCRC returns the CRC32C of b — the whole-file digest the store
// manifest pins each shard under.
func ShardCRC(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// SaveShard writes the rank's shard to w (v2, watermark 0).
func SaveShard(w io.Writer, g *Graph) error { return SaveShardState(w, g, 0) }

// SaveShardState writes the rank's shard to w with its replay watermark
// (the id of the last mutation batch folded into this CSR), so a reloaded
// shard resumes exactly-once ingest where the saved one stopped.
func SaveShardState(w io.Writer, g *Graph, watermark uint64) error {
	enc, err := EncodeShardState(g, watermark)
	if err != nil {
		return err
	}
	_, err = w.Write(enc)
	return err
}

// EncodeShardState packs the shard into one v2 byte slice.
func EncodeShardState(g *Graph, watermark uint64) ([]byte, error) {
	pb, err := partition.Encode(g.Part)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	meta := make([]byte, 0, shardMetaBytes)
	meta = binary.LittleEndian.AppendUint32(meta, uint32(g.rank))
	meta = binary.LittleEndian.AppendUint32(meta, g.NGlobal)
	meta = binary.LittleEndian.AppendUint64(meta, g.MGlobal)
	meta = binary.LittleEndian.AppendUint32(meta, g.NLoc)
	meta = binary.LittleEndian.AppendUint32(meta, g.NGst)
	meta = binary.LittleEndian.AppendUint64(meta, watermark)

	ghost := make([]byte, 4*len(g.GhostOwner))
	for i, v := range g.GhostOwner {
		binary.LittleEndian.PutUint32(ghost[4*i:], uint32(v))
	}
	sections := [numShardSections]struct {
		kind    uint32
		payload []byte
	}{
		{secPartitioner, pb},
		{secMeta, meta},
		{secOutIdx, encodeU64s(g.OutIdx)},
		{secOutEdges, encodeU32s(g.OutEdges)},
		{secInIdx, encodeU64s(g.InIdx)},
		{secInEdges, encodeU32s(g.InEdges)},
		{secUnmap, encodeU32s(g.Unmap)},
		{secGhostOwner, ghost},
	}

	total := shardSuperblock + numShardSections*shardSectionHdr
	for _, s := range sections {
		total += len(s.payload)
	}
	out := make([]byte, 0, total)
	out = binary.LittleEndian.AppendUint32(out, shardMagic)
	out = binary.LittleEndian.AppendUint32(out, shardVersion)
	out = binary.LittleEndian.AppendUint32(out, numShardSections)
	out = binary.LittleEndian.AppendUint32(out, 0)
	for _, s := range sections {
		out = binary.LittleEndian.AppendUint32(out, s.kind)
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(s.payload, castagnoli))
		out = binary.LittleEndian.AppendUint64(out, uint64(len(s.payload)))
	}
	for _, s := range sections {
		out = append(out, s.payload...)
	}
	return out, nil
}

// LoadShard reads a shard written by SaveShard (format v2; v1 is
// rejected). The global→local map is rebuilt from the unmap array rather
// than stored.
func LoadShard(r io.Reader) (*Graph, error) {
	g, _, err := LoadShardState(r)
	return g, err
}

// LoadShardState reads a shard plus its replay watermark.
func LoadShardState(r io.Reader) (*Graph, uint64, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, 0, fmt.Errorf("core: reading shard: %w", err)
	}
	return LoadShardStateBytes(b)
}

// LoadShardBytes decodes a shard from an in-memory buffer.
func LoadShardBytes(b []byte) (*Graph, error) {
	g, _, err := LoadShardStateBytes(b)
	return g, err
}

// LoadShardStateBytes decodes a shard and its watermark from an in-memory
// buffer. Every section length and element count is validated against the
// bytes that actually arrived before anything is allocated, so a lying
// header is rejected with an error instead of an absurd allocation, and
// every v2 section must pass its CRC32C before the graph is assembled.
func LoadShardStateBytes(b []byte) (*Graph, uint64, error) {
	if len(b) < 8 {
		return nil, 0, fmt.Errorf("core: shard header truncated at %d bytes", len(b))
	}
	if magic := binary.LittleEndian.Uint32(b[0:4]); magic != shardMagic {
		return nil, 0, fmt.Errorf("core: bad shard magic %#x", magic)
	}
	if version := binary.LittleEndian.Uint32(b[4:8]); version != shardVersion {
		return nil, 0, fmt.Errorf("core: unsupported shard version %d", version)
	}
	return loadShardV2(b[8:])
}

// loadShardV2 decodes the sectioned body after the magic+version words.
func loadShardV2(body []byte) (*Graph, uint64, error) {
	if len(body) < 8 {
		return nil, 0, fmt.Errorf("core: shard superblock truncated")
	}
	nSec := binary.LittleEndian.Uint32(body[0:4])
	if nSec != numShardSections {
		return nil, 0, fmt.Errorf("core: shard superblock names %d sections, want %d", nSec, numShardSections)
	}
	if flags := binary.LittleEndian.Uint32(body[4:8]); flags != 0 {
		return nil, 0, fmt.Errorf("core: shard superblock has unknown flags %#x", flags)
	}
	table := body[8:]
	if uint64(len(table)) < numShardSections*shardSectionHdr {
		return nil, 0, fmt.Errorf("core: shard section table truncated at %d bytes", len(table))
	}
	payloads := table[numShardSections*shardSectionHdr:]
	secs := make(map[uint32][]byte, numShardSections)
	off := uint64(0)
	for i := 0; i < numShardSections; i++ {
		h := table[i*shardSectionHdr:]
		kind := binary.LittleEndian.Uint32(h[0:4])
		sum := binary.LittleEndian.Uint32(h[4:8])
		length := binary.LittleEndian.Uint64(h[8:16])
		if length > uint64(len(payloads))-off {
			return nil, 0, fmt.Errorf("core: shard section %d claims %d bytes with %d remaining",
				kind, length, uint64(len(payloads))-off)
		}
		p := payloads[off : off+length]
		if got := crc32.Checksum(p, castagnoli); got != sum {
			return nil, 0, fmt.Errorf("core: shard section %d checksum mismatch: %#x != %#x", kind, got, sum)
		}
		if _, dup := secs[kind]; dup {
			return nil, 0, fmt.Errorf("core: shard section %d appears twice", kind)
		}
		secs[kind] = p
		off += length
	}
	if off != uint64(len(payloads)) {
		return nil, 0, fmt.Errorf("core: %d trailing bytes after shard sections", uint64(len(payloads))-off)
	}
	for kind := uint32(secPartitioner); kind <= secGhostOwner; kind++ {
		if _, ok := secs[kind]; !ok {
			return nil, 0, fmt.Errorf("core: shard section %d missing", kind)
		}
	}

	meta := secs[secMeta]
	if len(meta) != shardMetaBytes {
		return nil, 0, fmt.Errorf("core: shard meta section is %d bytes, want %d", len(meta), shardMetaBytes)
	}
	pt, err := partition.Decode(secs[secPartitioner])
	if err != nil {
		return nil, 0, err
	}
	g := &Graph{Part: pt}
	g.rank = int(binary.LittleEndian.Uint32(meta[0:4]))
	g.NGlobal = binary.LittleEndian.Uint32(meta[4:8])
	g.MGlobal = binary.LittleEndian.Uint64(meta[8:16])
	g.NLoc = binary.LittleEndian.Uint32(meta[16:20])
	g.NGst = binary.LittleEndian.Uint32(meta[20:24])
	watermark := binary.LittleEndian.Uint64(meta[24:32])

	// Cross-validate each section's length against the meta counts before
	// decoding (the checksums catch corruption; this catches inconsistency).
	idxLen := 8 * (uint64(g.NLoc) + 1)
	if uint64(len(secs[secOutIdx])) != idxLen || uint64(len(secs[secInIdx])) != idxLen {
		return nil, 0, fmt.Errorf("core: shard CSR index sections %d/%d bytes, want %d",
			len(secs[secOutIdx]), len(secs[secInIdx]), idxLen)
	}
	if uint64(len(secs[secUnmap])) != 4*(uint64(g.NLoc)+uint64(g.NGst)) {
		return nil, 0, fmt.Errorf("core: shard unmap section %d bytes for %d vertices",
			len(secs[secUnmap]), uint64(g.NLoc)+uint64(g.NGst))
	}
	if uint64(len(secs[secGhostOwner])) != 4*uint64(g.NGst) {
		return nil, 0, fmt.Errorf("core: shard ghost section %d bytes for %d ghosts", len(secs[secGhostOwner]), g.NGst)
	}
	if len(secs[secOutEdges])%4 != 0 || len(secs[secInEdges])%4 != 0 {
		return nil, 0, fmt.Errorf("core: ragged shard edge sections")
	}
	mOut := uint64(len(secs[secOutEdges])) / 4
	mIn := uint64(len(secs[secInEdges])) / 4
	if mOut > g.MGlobal || mIn > g.MGlobal {
		return nil, 0, fmt.Errorf("core: shard edge counts exceed global count")
	}

	g.OutIdx = decodeU64s(secs[secOutIdx])
	g.InIdx = decodeU64s(secs[secInIdx])
	g.OutEdges = decodeU32s(secs[secOutEdges])
	g.InEdges = decodeU32s(secs[secInEdges])
	g.Unmap = decodeU32s(secs[secUnmap])
	if g.OutIdx[g.NLoc] != mOut || g.InIdx[g.NLoc] != mIn {
		return nil, 0, fmt.Errorf("core: shard CSR index ends at %d/%d, edge sections hold %d/%d",
			g.OutIdx[g.NLoc], g.InIdx[g.NLoc], mOut, mIn)
	}
	ghost := decodeU32s(secs[secGhostOwner])
	g.GhostOwner = make([]int32, g.NGst)
	for i, v := range ghost {
		g.GhostOwner[i] = int32(v)
	}

	// The global→local map is rebuilt from Unmap rather than stored.
	g.Map = mapOf(g.Unmap)
	if err := g.Validate(); err != nil {
		return nil, 0, fmt.Errorf("core: loaded shard invalid: %w", err)
	}
	return g, watermark, nil
}

func encodeU32s(vals []uint32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], v)
	}
	return out
}

func encodeU64s(vals []uint64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], v)
	}
	return out
}

func decodeU32s(b []byte) []uint32 {
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

func decodeU64s(b []byte) []uint64 {
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out
}
