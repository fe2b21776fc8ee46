// Package gio reads and writes the paper's on-disk graph format: a single
// binary file of unsorted directed edges, each edge two little-endian
// 32-bit unsigned integers (source, destination), no header.
//
// Ingestion follows the paper's §III-A: each task reads a contiguous byte
// range covering approximately the same number of edges, concurrently with
// every other task. On Blue Waters the file is striped across Lustre
// storage units; here the concurrent ReadAt calls against a local file
// exercise the same code structure (per-task contiguous chunks aligned to
// whole edges) at whatever bandwidth the local device provides.
package gio

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"os"
	"unsafe"

	"repro/internal/edge"
)

// EdgeBytes is the on-disk size of one directed edge.
const EdgeBytes = 8

// WriteFile writes edges to path in the binary format, replacing any
// existing file.
func WriteFile(path string, edges edge.List) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("gio: %w", err)
	}
	defer f.Close()
	if err := WriteTo(f, edges); err != nil {
		return err
	}
	return f.Close()
}

// WriteTo streams edges to w in the binary format.
func WriteTo(w io.Writer, edges edge.List) error {
	const chunk = 1 << 16 // words per buffered write
	buf := make([]byte, 0, chunk*4)
	for i := 0; i < len(edges); i += chunk {
		hi := i + chunk
		if hi > len(edges) {
			hi = len(edges)
		}
		buf = buf[:0]
		for _, v := range edges[i:hi] {
			buf = binary.LittleEndian.AppendUint32(buf, v)
		}
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("gio: %w", err)
		}
	}
	return nil
}

// CountEdges returns the number of edges in the file at path, failing if
// the size is not a whole number of edges.
func CountEdges(path string) (uint64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, fmt.Errorf("gio: %w", err)
	}
	if st.Size()%EdgeBytes != 0 {
		return 0, fmt.Errorf("gio: %s has ragged size %d (not a multiple of %d)", path, st.Size(), EdgeBytes)
	}
	return uint64(st.Size()) / EdgeBytes, nil
}

// Reader reads edge chunks from an open file. It is safe for concurrent
// use by multiple ranks' goroutines: all reads are positioned (ReadAt).
type Reader struct {
	f        *os.File
	numEdges uint64
}

// Open opens the edge file at path for chunked reading.
func Open(path string) (*Reader, error) {
	n, err := CountEdges(path)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("gio: %w", err)
	}
	return &Reader{f: f, numEdges: n}, nil
}

// NumEdges returns the total number of edges in the file.
func (r *Reader) NumEdges() uint64 { return r.numEdges }

// Close closes the underlying file.
func (r *Reader) Close() error { return r.f.Close() }

// ReadChunk reads edges [lo, hi). Chunks are aligned to whole edges by
// construction, so tasks never split a pair across a boundary. The file's
// bytes land directly in the returned list's memory, which is already the
// list on a little-endian host; a big-endian host swaps each word in place.
func (r *Reader) ReadChunk(lo, hi uint64) (edge.List, error) {
	if lo > hi || hi > r.numEdges {
		return nil, fmt.Errorf("gio: chunk [%d,%d) outside %d edges", lo, hi, r.numEdges)
	}
	out := make(edge.List, 2*(hi-lo))
	if len(out) == 0 {
		return out, nil
	}
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), 4*len(out))
	if _, err := r.f.ReadAt(buf, int64(lo)*EdgeBytes); err != nil {
		return nil, fmt.Errorf("gio: read chunk [%d,%d): %w", lo, hi, err)
	}
	if binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		for i, w := range out {
			out[i] = bits.ReverseBytes32(w)
		}
	}
	return out, nil
}
