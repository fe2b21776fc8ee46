package analytics

// This file implements checkpoint/restart for PageRank and weighted
// PageRank: snapshot each rank's owned scores every K iterations, and
// resume a run from the last snapshot on a fresh group (a new TCP mesh, or
// new in-process ranks). Because PageRank is deterministic, a resumed run
// finishes with scores byte-identical to an uninterrupted one — the
// property the checkpoint tests pin.

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"repro/internal/comm"
	"repro/internal/core"
)

// Checkpoint is one rank's iteration-granular snapshot of an analytic's
// restartable state. Only owned-vertex scores are stored: ghost values are
// re-derived on resume with one halo exchange, and all other loop state
// (dangling mass, pulled values) is recomputed from the owned scores.
type Checkpoint struct {
	// Analytic names the algorithm the state belongs to ("pagerank" or
	// "wpagerank"); resume validates it.
	Analytic string
	// Iter is the number of iterations fully completed at snapshot time;
	// a resumed run continues with iteration Iter.
	Iter int
	// Rank and Size pin the snapshot to its owner: state is partitioned,
	// so a checkpoint only restores into the same rank of an equal-sized
	// group over the same graph.
	Rank, Size int
	// NLoc is the owned-vertex count, validated against the graph.
	NLoc uint32
	// F64 holds the owned vertices' scores, NLoc of them.
	F64 []float64
}

// ckptMagic begins every encoded checkpoint ("GCK1").
const ckptMagic = 0x47434B31

// Encode serializes the checkpoint to the stable little-endian format
// documented in DESIGN.md §5.4. The format's trailing u32 section, which no
// checkpoint fills any more, is written empty.
func (cp *Checkpoint) Encode() []byte {
	n := 4 + 4 + 2 + len(cp.Analytic) + 8 + 4 + 4 + 4 + 8 + 8*len(cp.F64) + 8
	b := make([]byte, 0, n)
	b = binary.LittleEndian.AppendUint32(b, ckptMagic)
	b = binary.LittleEndian.AppendUint32(b, 1) // version
	b = binary.LittleEndian.AppendUint16(b, uint16(len(cp.Analytic)))
	b = append(b, cp.Analytic...)
	b = binary.LittleEndian.AppendUint64(b, uint64(cp.Iter))
	b = binary.LittleEndian.AppendUint32(b, uint32(cp.Rank))
	b = binary.LittleEndian.AppendUint32(b, uint32(cp.Size))
	b = binary.LittleEndian.AppendUint32(b, cp.NLoc)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(cp.F64)))
	for _, v := range cp.F64 {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return binary.LittleEndian.AppendUint64(b, 0) // u32 section length
}

// DecodeCheckpoint parses an encoded checkpoint, validating structure and
// bounds; it never panics or over-allocates on corrupt input (section
// lengths are checked against the remaining bytes before allocation). A
// non-empty u32 section is checked for length and skipped.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	bad := func(what string) (*Checkpoint, error) {
		return nil, fmt.Errorf("analytics: corrupt checkpoint: %s", what)
	}
	if len(b) < 14 {
		return bad("short header")
	}
	if binary.LittleEndian.Uint32(b[0:4]) != ckptMagic {
		return bad("bad magic")
	}
	if v := binary.LittleEndian.Uint32(b[4:8]); v != 1 {
		return nil, fmt.Errorf("analytics: checkpoint version %d not supported", v)
	}
	nameLen := int(binary.LittleEndian.Uint16(b[8:10]))
	b = b[10:]
	if len(b) < nameLen+28 {
		return bad("truncated name")
	}
	cp := &Checkpoint{Analytic: string(b[:nameLen])}
	b = b[nameLen:]
	cp.Iter = int(binary.LittleEndian.Uint64(b[0:8]))
	cp.Rank = int(binary.LittleEndian.Uint32(b[8:12]))
	cp.Size = int(binary.LittleEndian.Uint32(b[12:16]))
	cp.NLoc = binary.LittleEndian.Uint32(b[16:20])
	nf := binary.LittleEndian.Uint64(b[20:28])
	b = b[28:]
	if nf > uint64(len(b))/8 {
		return bad("f64 section overruns data")
	}
	cp.F64 = make([]float64, nf)
	for i := range cp.F64 {
		cp.F64[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	b = b[8*nf:]
	if len(b) < 8 {
		return bad("missing u32 section")
	}
	nu := binary.LittleEndian.Uint64(b[0:8])
	b = b[8:]
	if nu > uint64(len(b))/4 {
		return bad("u32 section overruns data")
	}
	if uint64(len(b)) != 4*nu {
		return bad("trailing bytes")
	}
	return cp, nil
}

// WriteCheckpointFile atomically writes the encoded checkpoint to path
// (write to a temp file in the same directory, then rename), so a crash
// mid-write never destroys the previous snapshot.
func WriteCheckpointFile(path string, cp *Checkpoint) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, cp.Encode(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ReadCheckpointFile reads and decodes a checkpoint written by
// WriteCheckpointFile.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeCheckpoint(b)
}

// CheckpointConfig attaches snapshotting and resumption to an analytic run.
// The zero value disables both.
type CheckpointConfig struct {
	// Every snapshots after each Every-th completed iteration; 0 disables
	// snapshotting.
	Every int
	// Sink receives each snapshot (e.g. retain in memory, or
	// WriteCheckpointFile). A Sink error aborts the run.
	Sink func(cp *Checkpoint) error
	// Resume, when non-nil, restores this rank's state and continues from
	// iteration Resume.Iter instead of initializing. Resumption is
	// collective: every rank of the group must resume from snapshots of
	// the same iteration, or the run fails.
	Resume *Checkpoint
}

// snapshots reports whether periodic snapshotting is on.
func (cc CheckpointConfig) snapshots() bool { return cc.Every > 0 && cc.Sink != nil }

// due reports whether a snapshot is due after the 1-based iteration `done`.
func (cc CheckpointConfig) due(done int) bool {
	return cc.snapshots() && done%cc.Every == 0
}

// validateResume checks a resume checkpoint against the running analytic,
// its shard and its iteration count, then verifies with the group that
// every rank is resuming from the same iteration — after a crash, ranks can
// hold snapshots of different ages (a lagging rank dies before its latest
// snapshot), and resuming from mixed iterations would silently diverge
// instead of reproducing the uninterrupted run.
func (cc CheckpointConfig) validateResume(ctx *core.Ctx, analytic string, nloc uint32, iterations int) error {
	cp := cc.Resume
	if cp.Analytic != analytic {
		return fmt.Errorf("analytics: resuming %s from a %q checkpoint", analytic, cp.Analytic)
	}
	if cp.Rank != ctx.Rank() || cp.Size != ctx.Size() {
		return fmt.Errorf("analytics: checkpoint belongs to rank %d of %d, not rank %d of %d",
			cp.Rank, cp.Size, ctx.Rank(), ctx.Size())
	}
	if cp.NLoc != nloc || len(cp.F64) != int(nloc) {
		return fmt.Errorf("analytics: checkpoint has %d owned vertices and %d scores, shard has %d vertices",
			cp.NLoc, len(cp.F64), nloc)
	}
	if cp.Iter < 0 || cp.Iter > iterations {
		return fmt.Errorf("analytics: checkpoint at iteration %d, run has %d", cp.Iter, iterations)
	}
	it := float64(cp.Iter)
	lo, err := comm.Allreduce(ctx.Comm, it, comm.OpMin)
	if err != nil {
		return err
	}
	hi, err := comm.Allreduce(ctx.Comm, it, comm.OpMax)
	if err != nil {
		return err
	}
	if lo != hi {
		return fmt.Errorf("analytics: rank %d resuming %s from iteration %d, but the group holds iterations %d..%d (resume from the newest iteration durable on every rank)",
			ctx.Rank(), analytic, cp.Iter, int(lo), int(hi))
	}
	return nil
}
