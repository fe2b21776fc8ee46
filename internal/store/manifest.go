// Package store is the persistent packed shard store: after a build (or a
// compaction epoch swap) every rank's relabeled CSR, ghost tables, and
// replay watermark are written as checksummed v2 shard files (the
// core.SaveShardState layout), and a sealed manifest makes the shard set
// self-describing — graph epoch, watermark, partitioner, replica
// placement, and one digest per shard (replica files of the same shard at
// the same watermark are byte-identical, so one digest covers every copy).
//
// A cluster booting from a store validates the manifest, bulk-reads its
// shards with a digest check, and skips ingestion entirely — including
// backup replicas, which load their copies from local files instead of
// receiving them over Alltoallv. All writes are temp+rename, and the
// manifest is written only after every shard file of its epoch is durable,
// so a crash at any instant leaves the previous manifest referencing only
// complete files. A background auditor re-reads shard files at a paced
// rate, quarantines corrupt ones, and repairs them from a healthy sibling
// replica through the placement's replica lists.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"repro/internal/partition"
)

// Manifest codec layout (all little-endian):
//
//	u32 magic "GMFT"   u32 version = 1
//	u64 epoch          u64 watermark
//	u32 nGlobal        u64 mGlobal
//	u32 partLen, partitioner blob
//	u32 placeLen, placement blob (partition.EncodePlacement)
//	u32 shardCount
//	shardCount × { u64 size, u32 crc32c, u32 hostCount, hostCount × u32 }
//	32-byte SHA-256 seal over every preceding byte
//
// The seal makes the manifest tamper-evident end to end: a torn write, a
// bitflip, or a spliced shard entry fails the seal before any field is
// trusted. (It is a content seal, not a key-bearing signature — the store
// directory is the trust boundary.)
const (
	manifestMagic   = 0x54464D47 // "GMFT"
	manifestVersion = 1
	sealSize        = sha256.Size
)

// Digest pins one shard file's content: its exact size and whole-file
// CRC32C. Replica files of the same shard are byte-identical, so one
// digest covers all of them.
type Digest struct {
	Size uint64
	CRC  uint32
}

// ShardEntry is one shard's manifest row: its digest plus the hosts whose
// replica files exist on disk (a host that was dead at snapshot time has
// no file and recovers its copy from a sibling at boot).
type ShardEntry struct {
	Digest Digest
	Hosts  []int32
}

// Manifest describes one complete, consistent shard set.
type Manifest struct {
	// Epoch is the graph epoch the shard set captures; Watermark is the
	// replay watermark every shard was saved at (uniform: batches
	// are collective).
	Epoch     uint64
	Watermark uint64
	// NGlobal and MGlobal describe the captured graph.
	NGlobal uint32
	MGlobal uint64
	// Partition is the encoded partitioner (partition.Encode) shared by
	// every shard.
	Partition []byte
	// Placement maps shards to replica hosts.
	Placement *partition.Placement
	// Shards has one entry per shard, indexed by shard id.
	Shards []ShardEntry
}

// Encode packs and seals the manifest.
func (m *Manifest) Encode() ([]byte, error) {
	if m.Placement == nil {
		return nil, fmt.Errorf("store: manifest has no placement")
	}
	if len(m.Shards) != m.Placement.Shards() {
		return nil, fmt.Errorf("store: manifest has %d shard entries for %d shards",
			len(m.Shards), m.Placement.Shards())
	}
	out := make([]byte, 0, 256)
	out = binary.LittleEndian.AppendUint32(out, manifestMagic)
	out = binary.LittleEndian.AppendUint32(out, manifestVersion)
	out = binary.LittleEndian.AppendUint64(out, m.Epoch)
	out = binary.LittleEndian.AppendUint64(out, m.Watermark)
	out = binary.LittleEndian.AppendUint32(out, m.NGlobal)
	out = binary.LittleEndian.AppendUint64(out, m.MGlobal)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(m.Partition)))
	out = append(out, m.Partition...)
	pb := partition.EncodePlacement(m.Placement)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(pb)))
	out = append(out, pb...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(m.Shards)))
	for s, e := range m.Shards {
		if len(e.Hosts) == 0 {
			return nil, fmt.Errorf("store: manifest shard %d has no host files", s)
		}
		out = binary.LittleEndian.AppendUint64(out, e.Digest.Size)
		out = binary.LittleEndian.AppendUint32(out, e.Digest.CRC)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(e.Hosts)))
		for _, h := range e.Hosts {
			out = binary.LittleEndian.AppendUint32(out, uint32(h))
		}
	}
	seal := sha256.Sum256(out)
	return append(out, seal[:]...), nil
}

// DecodeManifest verifies the seal and unpacks the manifest. Every length
// is validated against the remaining input before allocation, and every
// structural claim (host ids inside the rank space, host counts within the
// replication factor, no duplicate hosts) is checked, so a corrupt or
// adversarial manifest is rejected with an error — never a bad load.
func DecodeManifest(b []byte) (*Manifest, error) {
	if len(b) < sealSize {
		return nil, fmt.Errorf("store: manifest truncated at %d bytes", len(b))
	}
	body, seal := b[:len(b)-sealSize], b[len(b)-sealSize:]
	if sum := sha256.Sum256(body); string(sum[:]) != string(seal) {
		return nil, fmt.Errorf("store: manifest seal mismatch")
	}
	take := func(n uint64, what string) ([]byte, error) {
		if uint64(len(body)) < n {
			return nil, fmt.Errorf("store: manifest %s wants %d bytes, %d remain", what, n, len(body))
		}
		p := body[:n]
		body = body[n:]
		return p, nil
	}
	hdr, err := take(36, "header")
	if err != nil {
		return nil, err
	}
	if magic := binary.LittleEndian.Uint32(hdr[0:4]); magic != manifestMagic {
		return nil, fmt.Errorf("store: bad manifest magic %#x", magic)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != manifestVersion {
		return nil, fmt.Errorf("store: unsupported manifest version %d", v)
	}
	m := &Manifest{
		Epoch:     binary.LittleEndian.Uint64(hdr[8:16]),
		Watermark: binary.LittleEndian.Uint64(hdr[16:24]),
		NGlobal:   binary.LittleEndian.Uint32(hdr[24:28]),
		MGlobal:   binary.LittleEndian.Uint64(hdr[28:36]),
	}
	lenW, err := take(4, "partitioner length")
	if err != nil {
		return nil, err
	}
	pb, err := take(uint64(binary.LittleEndian.Uint32(lenW)), "partitioner blob")
	if err != nil {
		return nil, err
	}
	m.Partition = pb
	if lenW, err = take(4, "placement length"); err != nil {
		return nil, err
	}
	plb, err := take(uint64(binary.LittleEndian.Uint32(lenW)), "placement blob")
	if err != nil {
		return nil, err
	}
	if m.Placement, err = partition.DecodePlacement(plb); err != nil {
		return nil, fmt.Errorf("store: manifest placement: %w", err)
	}
	if lenW, err = take(4, "shard count"); err != nil {
		return nil, err
	}
	nShards := binary.LittleEndian.Uint32(lenW)
	if int(nShards) != m.Placement.Shards() {
		return nil, fmt.Errorf("store: manifest lists %d shards, placement has %d", nShards, m.Placement.Shards())
	}
	m.Shards = make([]ShardEntry, nShards)
	for s := range m.Shards {
		row, err := take(16, "shard entry")
		if err != nil {
			return nil, err
		}
		e := ShardEntry{Digest: Digest{
			Size: binary.LittleEndian.Uint64(row[0:8]),
			CRC:  binary.LittleEndian.Uint32(row[8:12]),
		}}
		nHosts := binary.LittleEndian.Uint32(row[12:16])
		if nHosts == 0 || int(nHosts) > m.Placement.Replicas() {
			return nil, fmt.Errorf("store: manifest shard %d lists %d host files (replication factor %d)",
				s, nHosts, m.Placement.Replicas())
		}
		hb, err := take(4*uint64(nHosts), "shard hosts")
		if err != nil {
			return nil, err
		}
		seen := make(map[uint32]bool, nHosts)
		for i := uint32(0); i < nHosts; i++ {
			h := binary.LittleEndian.Uint32(hb[4*i:])
			if int(h) >= m.Placement.Ranks() {
				return nil, fmt.Errorf("store: manifest shard %d names host %d outside %d ranks",
					s, h, m.Placement.Ranks())
			}
			if seen[h] {
				return nil, fmt.Errorf("store: manifest shard %d names host %d twice", s, h)
			}
			seen[h] = true
			if !m.Placement.HostsShard(int(h), s) {
				return nil, fmt.Errorf("store: manifest shard %d names host %d, which the placement excludes", s, h)
			}
			e.Hosts = append(e.Hosts, int32(h))
		}
		m.Shards[s] = e
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("store: %d trailing bytes after manifest", len(body))
	}
	return m, nil
}
