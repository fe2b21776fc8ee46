// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the repository.
//
// Determinism matters here more than statistical perfection: graph
// generation, random partitioning, and tie-breaking must produce identical
// results for a given seed regardless of rank count, thread count, or
// iteration order. Two generators are provided:
//
//   - SplitMix64: a tiny stateless-splittable generator, used to derive
//     independent streams (one per rank, per thread, per vertex) and as the
//     hash behind random partitioning.
//   - Xoshiro256: xoshiro256**, a high-quality general-purpose generator
//     with 2^256-1 period, used for bulk generation (R-MAT, Erdős–Rényi).
//
// Neither generator is safe for concurrent use; derive one stream per
// goroutine with Split or NewXoshiro256(seed, stream).
package rng

import "math/bits"

// SplitMix64 is a 64-bit generator with a single word of state. Its Next
// function is also a high-quality mixing function, which makes it usable as
// a hash: Mix64(x) is the value a SplitMix64 seeded just before x would
// produce.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a generator seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next pseudo-random 64-bit value.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix(s.state)
}

// Split derives an independent generator. The derived stream is a function
// of the parent's current state, so calling Split repeatedly yields distinct
// streams.
func (s *SplitMix64) Split() *SplitMix64 {
	return &SplitMix64{state: s.Next()}
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 applies the SplitMix64 finalizer to x. It is a bijective mixing
// function suitable for hashing vertex identifiers; in particular it is the
// hash used by random partitioning so that every rank computes the same
// owner for a vertex without communication.
func Mix64(x uint64) uint64 {
	return mix(x + 0x9e3779b97f4a7c15)
}

// Xoshiro256 implements the xoshiro256** 1.0 generator of Blackman and
// Vigna. The zero value is invalid; construct with NewXoshiro256.
type Xoshiro256 struct {
	s0, s1, s2, s3 uint64
}

// NewXoshiro256 returns a generator for the given seed and stream number.
// Distinct (seed, stream) pairs yield statistically independent sequences;
// the state is expanded from the pair with SplitMix64, as recommended by the
// xoshiro authors. It returns the state by value, so a stream per edge or
// per call stays on the caller's stack instead of costing a heap object.
func NewXoshiro256(seed, stream uint64) Xoshiro256 {
	sm := SplitMix64{state: seed ^ Mix64(stream)}
	x := Xoshiro256{sm.Next(), sm.Next(), sm.Next(), sm.Next()}
	// Guard against the (astronomically unlikely) all-zero state, which is
	// the one fixed point of the transition function.
	if x.s0|x.s1|x.s2|x.s3 == 0 {
		x.s0 = 0x9e3779b97f4a7c15
	}
	return x
}

// Next returns the next pseudo-random 64-bit value. It updates the four
// state words in place, which keeps it cheap enough for the compiler to
// inline into a caller's loop.
func (x *Xoshiro256) Next() uint64 {
	result := bits.RotateLeft64(x.s1*5, 7) * 9
	t := x.s1 << 17
	x.s2 ^= x.s0
	x.s3 ^= x.s1
	x.s1 ^= x.s2
	x.s0 ^= x.s3
	x.s2 ^= t
	x.s3 = bits.RotateLeft64(x.s3, 45)
	return result
}

// Uint32 returns a pseudo-random 32-bit value.
func (x *Xoshiro256) Uint32() uint32 {
	return uint32(x.Next() >> 32)
}

// Float64 returns a pseudo-random float64 uniform in [0, 1).
func (x *Xoshiro256) Float64() float64 {
	return float64(x.Next()>>11) / (1 << 53)
}

// Uint64n returns a pseudo-random value uniform in [0, n). It panics if n is
// zero. Uses Lemire's multiply-shift rejection method to avoid modulo bias.
func (x *Xoshiro256) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return x.Next() & (n - 1)
	}
	hi, lo := bits.Mul64(x.Next(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(x.Next(), n)
		}
	}
	return hi
}

// Uint32n returns a pseudo-random value uniform in [0, n).
func (x *Xoshiro256) Uint32n(n uint32) uint32 {
	return uint32(x.Uint64n(uint64(n)))
}

// Perm fills p with a pseudo-random permutation of [0, len(p)).
func (x *Xoshiro256) Perm(p []uint32) {
	for i := range p {
		p[i] = uint32(i)
	}
	for i := len(p) - 1; i > 0; i-- {
		j := x.Uint64n(uint64(i + 1))
		p[i], p[j] = p[j], p[i]
	}
}
