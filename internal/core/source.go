package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/edge"
	"repro/internal/gen"
	"repro/internal/gio"
)

// EdgeSource supplies chunks of a raw unsorted edge list — the paper's
// input format. Implementations exist for binary files (gio.Reader
// satisfies the interface directly), in-memory lists, and the synthetic
// generators. All ranks must observe the same logical list.
type EdgeSource interface {
	// NumEdges returns the total number of directed edges m.
	NumEdges() uint64
	// ReadChunk returns edges [lo, hi) of the list.
	ReadChunk(lo, hi uint64) (edge.List, error)
}

// ListSource serves an in-memory edge list.
type ListSource struct{ Edges edge.List }

// NumEdges implements EdgeSource.
func (s ListSource) NumEdges() uint64 { return uint64(s.Edges.Len()) }

// ReadChunk implements EdgeSource.
func (s ListSource) ReadChunk(lo, hi uint64) (edge.List, error) {
	if lo > hi || hi > s.NumEdges() {
		return nil, fmt.Errorf("core: chunk [%d,%d) outside %d edges", lo, hi, s.NumEdges())
	}
	return s.Edges[2*lo : 2*hi], nil
}

// SpecSource serves a synthetic graph generator spec.
type SpecSource struct{ Spec gen.Spec }

// NumEdges implements EdgeSource.
func (s SpecSource) NumEdges() uint64 { return s.Spec.NumEdges }

// ReadChunk implements EdgeSource.
func (s SpecSource) ReadChunk(lo, hi uint64) (edge.List, error) { return s.Spec.Generate(lo, hi) }

// OpenSource opens a command's input: the binary edge file, or the R-MAT
// spec "n,m,seed" served as a SpecSource. Setting both is an error; setting
// neither returns a nil source and no error, so each command words its own
// "required" message. On success the returned close releases the file (a
// no-op for the other cases) and is never nil.
func OpenSource(file, rmat string) (EdgeSource, func() error, error) {
	switch {
	case file != "" && rmat != "":
		return nil, nil, fmt.Errorf("-file and -rmat are mutually exclusive")
	case file != "":
		r, err := gio.Open(file)
		if err != nil {
			return nil, nil, err
		}
		return r, r.Close, nil
	case rmat != "":
		spec, err := gen.ParseRMAT(rmat)
		if err != nil {
			return nil, nil, fmt.Errorf("-rmat: %w", err)
		}
		return SpecSource{Spec: spec}, noClose, nil
	}
	return nil, noClose, nil
}

func noClose() error { return nil }

// PlantedSource serves a planted-community generator spec.
type PlantedSource struct{ Spec gen.PlantedSpec }

// NumEdges implements EdgeSource.
func (s PlantedSource) NumEdges() uint64 { return s.Spec.NumEdges }

// ReadChunk implements EdgeSource.
func (s PlantedSource) ReadChunk(lo, hi uint64) (edge.List, error) { return s.Spec.Generate(lo, hi) }

// ScanNumVertices determines n = 1 + max vertex id by a distributed scan of
// the source (each rank scans its chunk; maxima combine with an Allreduce).
// Use when the input file carries no vertex count, matching the paper's
// "vertex identifiers as given in the original source".
func ScanNumVertices(ctx *Ctx, src EdgeSource) (uint32, error) {
	lo, hi := gen.ChunkRange(src.NumEdges(), ctx.Rank(), ctx.Size())
	var localMax uint32
	const batch = 1 << 18
	for at := lo; at < hi; at += batch {
		end := at + batch
		if end > hi {
			end = hi
		}
		chunk, err := src.ReadChunk(at, end)
		if err != nil {
			return 0, err
		}
		if m, ok := chunk.MaxVertex(); ok && m > localMax {
			localMax = m
		}
	}
	globalMax, err := comm.Allreduce(ctx.Comm, localMax, comm.OpMax)
	if err != nil {
		return 0, err
	}
	if globalMax == ^uint32(0) {
		return 0, fmt.Errorf("core: vertex id %d collides with the sentinel", globalMax)
	}
	return globalMax + 1, nil
}
