// Package core implements the paper's primary contribution: the compact
// distributed graph representation of Table II and the end-to-end
// construction pipeline of §III-A — parallel ingestion of a raw edge list,
// two Alltoallv edge shuffles (out-edges to source owners, reversed edges
// to destination owners), and conversion to a task-local CSR with relabeled
// local and ghost vertices.
//
// Everything a rank needs at runtime lives in two objects: a Ctx (its
// communicator plus its intra-rank thread pool) and a Graph (its shard of
// the distributed graph). The analytics package builds entirely on these.
package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/par"
)

// TraversalMode selects the frontier strategy for the BFS-like analytics.
type TraversalMode int

// Traversal modes. The zero value is the adaptive engine, so a fresh Ctx
// defaults to hybrid traversal on.
const (
	// TraverseAdaptive switches per step between top-down push and
	// bottom-up pull, and between the sparse ID-list exchange and the dense
	// bitmap exchange, based on globally reduced frontier statistics.
	TraverseAdaptive TraversalMode = iota
	// TraversePush always pushes over the out-CSR and always ships
	// frontiers as sparse vertex lists — the pre-hybrid baseline, kept for
	// equivalence tests and the ablation benchmark.
	TraversePush
	// TraverseDense forces the dense path everywhere it is legal
	// (bottom-up pull for BFS, bitmap-compressed exchanges for SSSP and the
	// batched kernels) — a stress configuration for correctness tests.
	TraverseDense
)

// ParseTraversalMode maps the user-facing mode names onto the enum.
func ParseTraversalMode(s string) (TraversalMode, error) {
	switch s {
	case "", "adaptive":
		return TraverseAdaptive, nil
	case "push":
		return TraversePush, nil
	case "dense":
		return TraverseDense, nil
	}
	return 0, fmt.Errorf("core: traversal mode %q (want adaptive, push, or dense)", s)
}

// Ctx bundles one rank's execution resources: the communicator for
// inter-rank collectives (the MPI role) and the worker pool for intra-rank
// loops (the OpenMP role). A Ctx is confined to its rank's goroutine.
type Ctx struct {
	Comm *comm.Comm
	Pool *par.Pool
	// Traverse is the frontier policy for BFS-like analytics; the zero
	// value is the adaptive engine. Every rank of a group must hold the same
	// mode (like any other collective argument); the engine's per-step
	// decisions then derive from globally reduced values, so all ranks
	// switch direction and representation in lockstep.
	Traverse TraversalMode
	// Plans retains kernel plans (halo queues and geometry) across calls on
	// this Ctx. nil — the default — makes every kernel build per call.
	Plans *Plans
}

// NewCtx returns a context with the given number of intra-rank threads
// (<= 0 selects runtime.NumCPU()).
func NewCtx(c *comm.Comm, threads int) *Ctx {
	return &Ctx{Comm: c, Pool: par.NewPool(threads)}
}

// Rank returns the rank id.
func (ctx *Ctx) Rank() int { return ctx.Comm.Rank() }

// Size returns the number of ranks.
func (ctx *Ctx) Size() int { return ctx.Comm.Size() }
