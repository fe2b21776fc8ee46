// Streaming edge mutations. A Batch is the unit of ingest: an ordered
// sequence of insert/delete operations against the global edge list.
package edge

import "fmt"

// Op is a mutation operation. The zero value is invalid so that
// uninitialized records are rejected by validation rather than silently
// treated as inserts.
type Op uint8

const (
	// OpInsert adds the edge (Src, Dst) if no live copy exists; inserting
	// an edge that is already present is a no-op.
	OpInsert Op = 1
	// OpDelete removes every live copy of the edge (Src, Dst); deleting an
	// absent edge is a no-op.
	OpDelete Op = 2
)

// String names the operation for diagnostics.
func (op Op) String() string {
	switch op {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// Valid reports whether op is a defined operation.
func (op Op) Valid() bool { return op == OpInsert || op == OpDelete }

// Mutation is one directed-edge operation.
type Mutation struct {
	Op  Op     `json:"op"`
	Src uint32 `json:"src"`
	Dst uint32 `json:"dst"`
}

// Batch is an ordered mutation sequence. Order matters: a delete followed
// by an insert of the same edge leaves the edge present, and vice versa.
type Batch []Mutation

// Validate checks every record: defined op and endpoints below n.
func (b Batch) Validate(n uint32) error {
	for i, m := range b {
		if !m.Op.Valid() {
			return fmt.Errorf("edge: mutation %d has invalid op %d", i, uint8(m.Op))
		}
		if m.Src >= n || m.Dst >= n {
			return fmt.Errorf("edge: mutation %d endpoint (%d,%d) exceeds vertex count %d", i, m.Src, m.Dst, n)
		}
	}
	return nil
}

// ApplyTo is the sequential oracle for mutation semantics: it applies the
// batch to a global edge list and returns the mutated list. Inserts append
// the edge only if no live copy exists; deletes remove every live copy.
// Surviving base edges keep their original order; inserted edges append in
// application order. Differential tests rebuild shards from this list and
// demand byte-identical analytics against the distributed overlay.
func (b Batch) ApplyTo(l List) List {
	type key struct{ src, dst uint32 }
	count := make(map[key]int, l.Len())
	for i := 0; i < l.Len(); i++ {
		count[key{l.Src(i), l.Dst(i)}]++
	}
	dead := make(map[key]bool)
	var added []Mutation
	for _, m := range b {
		k := key{m.Src, m.Dst}
		switch m.Op {
		case OpInsert:
			if count[k] > 0 {
				continue
			}
			count[k] = 1
			added = append(added, m)
		case OpDelete:
			if count[k] == 0 {
				continue
			}
			count[k] = 0
			dead[k] = true
		}
	}
	out := Make(l.Len())
	for i := 0; i < l.Len(); i++ {
		k := key{l.Src(i), l.Dst(i)}
		if dead[k] {
			continue
		}
		out.Push(k.src, k.dst)
	}
	for _, m := range added {
		// An insert/delete churn within the batch can enqueue the same key
		// more than once; at most one copy is live (count is 0 or 1), so
		// consume the count when pushing.
		k := key{m.Src, m.Dst}
		if count[k] > 0 {
			out.Push(m.Src, m.Dst)
			count[k] = 0
		}
	}
	return out
}

// MaxBatch bounds one ingest batch.
const MaxBatch = 1 << 20
