// Package vmap implements the fast linear-probing hash map the paper uses
// to translate global vertex identifiers to task-local identifiers
// (map[global id] = local id, §III-C).
//
// The map is specialized to uint32→uint32, open-addressed with linear
// probing in a power-of-two table, and uses a reserved key sentinel instead
// of tombstones (analytics never delete entries: the key set is fixed after
// graph construction). Lookups on this layout are a single cache-line touch
// in the common case, which is what makes per-message id translation cheap
// enough to sit inside the receive loops of every analytic.
package vmap

import "repro/internal/rng"

// Empty is the reserved key marking an unoccupied slot. The all-ones vertex
// id is never valid: the on-disk format stores vertices as uint32 and the
// construction pipeline rejects graphs with 2^32-1 vertices or more.
const Empty = ^uint32(0)

// Map is an open-addressing uint32→uint32 hash map. The zero value is not
// usable; construct with New. Map is safe for concurrent readers once
// populated; writes must be serialized by the caller.
type Map struct {
	keys []uint32
	vals []uint32
	mask uint32
	n    int
}

// New returns a map pre-sized for at least capacity entries at a load
// factor no higher than 0.7.
func New(capacity int) *Map {
	size := uint32(16)
	for float64(capacity) > 0.7*float64(size) {
		size <<= 1
	}
	m := &Map{
		keys: make([]uint32, size),
		vals: make([]uint32, size),
		mask: size - 1,
	}
	for i := range m.keys {
		m.keys[i] = Empty
	}
	return m
}

// Len returns the number of entries.
func (m *Map) Len() int { return m.n }

// Cap returns the current table size (slots).
func (m *Map) Cap() int { return len(m.keys) }

func hash(k uint32) uint32 {
	return uint32(rng.Mix64(uint64(k)))
}

// Put inserts or overwrites key → val. key must not be Empty.
func (m *Map) Put(key, val uint32) {
	if key == Empty {
		panic("vmap: reserved key")
	}
	if float64(m.n+1) > 0.7*float64(len(m.keys)) {
		m.grow()
	}
	i := hash(key) & m.mask
	for {
		switch m.keys[i] {
		case Empty:
			m.keys[i] = key
			m.vals[i] = val
			m.n++
			return
		case key:
			m.vals[i] = val
			return
		}
		i = (i + 1) & m.mask
	}
}

// Get returns the value for key and whether it is present.
func (m *Map) Get(key uint32) (uint32, bool) {
	i := hash(key) & m.mask
	for {
		k := m.keys[i]
		if k == key {
			return m.vals[i], true
		}
		if k == Empty {
			return 0, false
		}
		i = (i + 1) & m.mask
	}
}

// GetOr returns the value for key, or def if absent.
func (m *Map) GetOr(key, def uint32) uint32 {
	if v, ok := m.Get(key); ok {
		return v
	}
	return def
}

func (m *Map) grow() {
	oldKeys, oldVals := m.keys, m.vals
	size := uint32(len(oldKeys)) << 1
	m.keys = make([]uint32, size)
	m.vals = make([]uint32, size)
	m.mask = size - 1
	for i := range m.keys {
		m.keys[i] = Empty
	}
	for i, k := range oldKeys {
		if k == Empty {
			continue
		}
		j := hash(k) & m.mask
		for m.keys[j] != Empty {
			j = (j + 1) & m.mask
		}
		m.keys[j] = k
		m.vals[j] = oldVals[i]
	}
}
