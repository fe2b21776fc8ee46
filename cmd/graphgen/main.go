// Command graphgen writes synthetic graphs in the repository's binary edge
// format (little-endian uint32 pairs, the paper's input layout).
//
// Usage:
//
//	graphgen -out crawl.bin -kind rmat -n 1048576 -degree 36 -seed 1
//	graphgen -out er.bin -kind er -n 65536 -m 1048576
//	graphgen -out comm.bin -kind planted -n 65536 -degree 16 -communities 512
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/edge"
	"repro/internal/gen"
	"repro/internal/gio"
)

func main() {
	var (
		out         = flag.String("out", "", "output file (required)")
		kind        = flag.String("kind", "rmat", "generator: rmat, er, or planted")
		n           = flag.Uint64("n", 1<<16, "number of vertices")
		m           = flag.Uint64("m", 0, "number of edges (default n*degree)")
		degree      = flag.Float64("degree", 16, "average degree when -m is unset")
		seed        = flag.Uint64("seed", 1, "generator seed")
		communities = flag.Int("communities", 256, "planted community count (kind=planted)")
		intra       = flag.Float64("intra", 0.85, "planted intra-community edge probability")
		a           = flag.Float64("a", 0, "R-MAT quadrant a (0 = Graph500 default)")
		b           = flag.Float64("b", 0, "R-MAT quadrant b")
		c           = flag.Float64("c", 0, "R-MAT quadrant c")
		d           = flag.Float64("d", 0, "R-MAT quadrant d")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "graphgen: -out is required")
		flag.Usage()
		os.Exit(2)
	}
	if *n >= math.MaxUint32 {
		fmt.Fprintf(os.Stderr, "graphgen: -n %d: vertex count must be below 2^32-1\n", *n)
		os.Exit(2)
	}
	edges := *m
	if edges == 0 {
		// Negated comparisons also catch NaN (0 × +Inf is one); the bound
		// keeps the conversion to an edge count exact.
		e := float64(*n) * *degree
		if !(*degree >= 0) || !(e <= gen.MaxEdges) {
			fmt.Fprintf(os.Stderr, "graphgen: -degree %v: want a finite degree >= 0 with n*degree at most %d\n", *degree, uint64(gen.MaxEdges))
			os.Exit(2)
		}
		edges = uint64(e)
	}
	var list edge.List
	var err error
	switch *kind {
	case "rmat", "er":
		k := gen.RMAT
		if *kind == "er" {
			k = gen.ER
		}
		spec := gen.Spec{Kind: k, NumVertices: uint32(*n), NumEdges: edges, Seed: *seed,
			A: *a, B: *b, C: *c, D: *d}
		list, err = spec.GenerateAll()
	case "planted":
		spec := gen.PlantedSpec{NumVertices: uint32(*n), NumEdges: edges,
			NumCommunities: *communities, IntraProb: *intra, Seed: *seed}
		list, err = spec.GenerateAll()
	default:
		err = fmt.Errorf("unknown kind %q", *kind)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
		os.Exit(1)
	}
	if err := gio.WriteFile(*out, list); err != nil {
		fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s: %d vertices, %d edges (%d bytes)\n",
		*out, *n, list.Len(), list.Len()*gio.EdgeBytes)
}
