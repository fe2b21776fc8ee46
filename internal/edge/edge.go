// Package edge defines the flat directed-edge-list representation shared by
// the generators, the on-disk format, and the construction pipeline.
//
// An edge list is a []uint32 with edges packed as consecutive
// (source, destination) pairs — the exact layout of the paper's input files
// ("each directed edge can be represented using two 32-bit unsigned
// integers") and the exact payload the construction pipeline hands to
// Alltoallv, so ingestion never reshapes data.
package edge

import "fmt"

// List is a flat array of directed edges: element 2i is the source and
// element 2i+1 the destination of edge i.
type List []uint32

// Make returns an empty list with capacity for n edges.
func Make(n int) List { return make(List, 0, 2*n) }

// Len returns the number of edges.
func (l List) Len() int { return len(l) / 2 }

// Src returns the source of edge i.
func (l List) Src(i int) uint32 { return l[2*i] }

// Dst returns the destination of edge i.
func (l List) Dst(i int) uint32 { return l[2*i+1] }

// Push appends the edge (src, dst).
func (l *List) Push(src, dst uint32) { *l = append(*l, src, dst) }

// MaxVertex returns the largest vertex id referenced, or 0 for an empty
// list; ok reports whether the list is non-empty.
func (l List) MaxVertex() (max uint32, ok bool) {
	if len(l) == 0 {
		return 0, false
	}
	for _, v := range l {
		if v > max {
			max = v
		}
	}
	return max, true
}

// Validate checks structural sanity: even length and all endpoints below n.
func (l List) Validate(n uint32) error {
	if len(l)%2 != 0 {
		return fmt.Errorf("edge: ragged list of %d words", len(l))
	}
	for i, v := range l {
		if v >= n {
			return fmt.Errorf("edge: endpoint %d at word %d exceeds vertex count %d", v, i, n)
		}
	}
	return nil
}
