package gio

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/edge"
	"repro/internal/gen"
)

func tempEdgeFile(t *testing.T, edges edge.List) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "edges.bin")
	if err := WriteFile(path, edges); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestWriteReadRoundTrip(t *testing.T) {
	var l edge.List
	for i := uint32(0); i < 1000; i++ {
		l.Push(i, i*2+1)
	}
	path := tempEdgeFile(t, l)

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumEdges() != 1000 {
		t.Fatalf("NumEdges = %d", r.NumEdges())
	}
	got, err := r.ReadChunk(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range l {
		if got[i] != l[i] {
			t.Fatalf("word %d: %d, want %d", i, got[i], l[i])
		}
	}
}

func TestWriteToMatchesWriteFile(t *testing.T) {
	var l edge.List
	for i := uint32(0); i < 70000; i++ { // spans multiple internal chunks
		l.Push(i, i+1)
	}
	var buf bytes.Buffer
	if err := WriteTo(&buf, l); err != nil {
		t.Fatal(err)
	}
	path := tempEdgeFile(t, l)
	fileBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), fileBytes) {
		t.Fatal("WriteTo and WriteFile produced different bytes")
	}
	if len(fileBytes) != 70000*EdgeBytes {
		t.Fatalf("file size %d", len(fileBytes))
	}
}

func TestChunkedReadsEqualWhole(t *testing.T) {
	spec := gen.Spec{Kind: gen.RMAT, NumVertices: 1 << 10, NumEdges: 12345, Seed: 6}
	l, err := spec.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	path := tempEdgeFile(t, l)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for _, p := range []int{1, 2, 3, 8} {
		var cat edge.List
		for rank := 0; rank < p; rank++ {
			lo, hi := gen.ChunkRange(r.NumEdges(), rank, p)
			chunk, err := r.ReadChunk(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			cat = append(cat, chunk...)
		}
		if len(cat) != len(l) {
			t.Fatalf("p=%d: %d words", p, len(cat))
		}
		for i := range l {
			if cat[i] != l[i] {
				t.Fatalf("p=%d word %d differs", p, i)
			}
		}
	}
}

func TestConcurrentChunkReads(t *testing.T) {
	var l edge.List
	for i := uint32(0); i < 50000; i++ {
		l.Push(i%977, (i*31)%977)
	}
	path := tempEdgeFile(t, l)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const p = 8
	var wg sync.WaitGroup
	errs := make([]error, p)
	chunks := make([]edge.List, p)
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			lo, hi := gen.ChunkRange(r.NumEdges(), rank, p)
			chunks[rank], errs[rank] = r.ReadChunk(lo, hi)
		}(rank)
	}
	wg.Wait()
	var cat edge.List
	for rank := 0; rank < p; rank++ {
		if errs[rank] != nil {
			t.Fatal(errs[rank])
		}
		cat = append(cat, chunks[rank]...)
	}
	for i := range l {
		if cat[i] != l[i] {
			t.Fatalf("concurrent read corrupted word %d", i)
		}
	}
}

func TestRaggedFileRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ragged.bin")
	if err := os.WriteFile(path, []byte{1, 2, 3, 4, 5}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("ragged file accepted")
	}
	if _, err := CountEdges(path); err == nil {
		t.Fatal("CountEdges accepted ragged file")
	}
}

func TestMissingFile(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "absent.bin")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestReadChunkBounds(t *testing.T) {
	var l edge.List
	l.Push(0, 1)
	path := tempEdgeFile(t, l)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.ReadChunk(0, 2); err == nil {
		t.Fatal("out-of-range chunk accepted")
	}
	if _, err := r.ReadChunk(1, 0); err == nil {
		t.Fatal("inverted chunk accepted")
	}
	empty, err := r.ReadChunk(1, 1)
	if err != nil || empty.Len() != 0 {
		t.Fatalf("empty chunk: %v %d", err, empty.Len())
	}
}
