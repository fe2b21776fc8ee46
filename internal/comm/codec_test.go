package comm

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// codecPaths lists the codec implementations reachable on this host: the
// portable per-element path always, the bulk reinterpret path only on
// little-endian hosts (where its output is defined to match the wire).
func codecPaths() []bool {
	if hostLittleEndian {
		return []bool{false, true}
	}
	return []bool{false}
}

// portableBytes encodes vals with the portable path regardless of the
// current selection, giving a path-independent reference encoding. Bitwise
// (float NaN payloads survive), so it doubles as the equality check.
func portableBytes[T Scalar](vals []T) []byte {
	saved := bulkCodec
	bulkCodec = false
	defer func() { bulkCodec = saved }()
	return encodeInto(nil, vals)
}

// checkCodecCross encodes with one path and decodes with another; every
// combination must reproduce the input bit-for-bit.
func checkCodecCross[T Scalar](t *testing.T, vals []T, encBulk, decBulk bool) {
	t.Helper()
	saved := bulkCodec
	defer func() { bulkCodec = saved }()

	bulkCodec = encBulk
	enc := encodeInto(nil, vals)
	if want := len(vals) * sizeOf[T](); len(enc) != want {
		t.Fatalf("encodeInto(%T, bulk=%v): %d bytes, want %d", vals, encBulk, len(enc), want)
	}

	bulkCodec = decBulk
	got := make([]T, len(vals))
	decodeInto(got, enc)
	if !bytes.Equal(portableBytes(got), portableBytes(vals)) {
		t.Fatalf("round trip %T enc(bulk=%v)/dec(bulk=%v): got %v, want %v",
			vals, encBulk, decBulk, got, vals)
	}

	// The allocating decode must agree with decodeInto.
	bulkCodec = decBulk
	got2, err := decode[T](enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(portableBytes(got2), portableBytes(vals)) {
		t.Fatalf("decode %T enc(bulk=%v)/dec(bulk=%v): got %v, want %v",
			vals, encBulk, decBulk, got2, vals)
	}
}

// checkCodecType drives random slices of one element type through every
// encode-path x decode-path combination.
func checkCodecType[T Scalar](t *testing.T, r *rand.Rand, gen func(*rand.Rand) T) {
	t.Helper()
	for _, n := range []int{0, 1, 3, 17, 1024} {
		vals := make([]T, n)
		for i := range vals {
			vals[i] = gen(r)
		}
		for _, encBulk := range codecPaths() {
			for _, decBulk := range codecPaths() {
				checkCodecCross(t, vals, encBulk, decBulk)
			}
		}
	}
}

// TestCodecCrossPath is the property test: for all eight Scalar types, the
// bulk and portable codec paths are interchangeable — bytes produced by
// either decode identically under either. Float values are drawn from raw
// bit patterns so NaNs and infinities are covered.
func TestCodecCrossPath(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	checkCodecType(t, r, func(r *rand.Rand) uint8 { return uint8(r.Uint32()) })
	checkCodecType(t, r, func(r *rand.Rand) uint16 { return uint16(r.Uint32()) })
	checkCodecType(t, r, func(r *rand.Rand) uint32 { return r.Uint32() })
	checkCodecType(t, r, func(r *rand.Rand) uint64 { return r.Uint64() })
	checkCodecType(t, r, func(r *rand.Rand) int32 { return int32(r.Uint32()) })
	checkCodecType(t, r, func(r *rand.Rand) int64 { return int64(r.Uint64()) })
	checkCodecType(t, r, func(r *rand.Rand) float32 { return math.Float32frombits(r.Uint32()) })
	checkCodecType(t, r, func(r *rand.Rand) float64 { return math.Float64frombits(r.Uint64()) })
}

// fuzzCodecType checks decode-then-encode is the identity on wire bytes for
// one element type, on every codec path.
func fuzzCodecType[T Scalar](t *testing.T, data []byte) {
	es := sizeOf[T]()
	data = data[:len(data)/es*es]
	saved := bulkCodec
	defer func() { bulkCodec = saved }()
	for _, path := range codecPaths() {
		bulkCodec = path
		vals, err := decode[T](data)
		if err != nil {
			t.Fatalf("decode(bulk=%v): %v", path, err)
		}
		if out := encodeInto(nil, vals); !bytes.Equal(out, data) {
			t.Errorf("decode/encode(bulk=%v) not identity for %T: got %x, want %x",
				path, vals, out, data)
		}
	}
}

// FuzzCodecRoundTrip feeds arbitrary wire bytes through decode-then-encode
// for all eight Scalar types on both codec paths.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0xff, 0x00, 0x80, 0x7f, 0xc0, 0xde, 0xad, 0xbe})
	f.Add(bytes.Repeat([]byte{0xa5}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzCodecType[uint8](t, data)
		fuzzCodecType[uint16](t, data)
		fuzzCodecType[uint32](t, data)
		fuzzCodecType[uint64](t, data)
		fuzzCodecType[int32](t, data)
		fuzzCodecType[int64](t, data)
		fuzzCodecType[float32](t, data)
		fuzzCodecType[float64](t, data)
	})
}
