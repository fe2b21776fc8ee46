package comm

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// Scalar enumerates the element types the collectives can move. The set is
// deliberately exact (no ~approximation) so the codec can dispatch with
// type assertions; every send queue in the analytics uses one of these.
type Scalar interface {
	uint8 | uint16 | uint32 | uint64 | int32 | int64 | float32 | float64
}

// The wire format is little-endian. On little-endian hosts (every platform
// this runs on in practice) the in-memory layout of a []T already *is* the
// wire format, so the codec reinterprets the slice as bytes and moves it
// with one bulk copy instead of one binary.LittleEndian call per element.
// The portable per-element path remains for big-endian hosts and is
// selected once at init; both transports see identical bytes either way.
var hostLittleEndian = func() bool {
	var x uint16 = 0x0102
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}()

// bulkCodec selects the reinterpret-and-copy fast path. Tests force both
// values to cover the portable fallback on little-endian CI hosts.
var bulkCodec = hostLittleEndian

// sizeOf returns the encoded size in bytes of one element of type T.
func sizeOf[T Scalar]() int {
	var z T
	switch any(z).(type) {
	case uint8:
		return 1
	case uint16:
		return 2
	case uint32, int32, float32:
		return 4
	default: // uint64, int64, float64
		return 8
	}
}

// asBytes reinterprets vals as its underlying bytes without copying. Only
// meaningful as wire data on little-endian hosts; callers gate on bulkCodec.
func asBytes[T Scalar](vals []T) []byte {
	if len(vals) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&vals[0])), len(vals)*sizeOf[T]())
}

// ScratchAs returns a length-n []T view over the retained word buffer
// *words, growing it first when it is too small. Word alignment satisfies
// every Scalar, so one buffer stages any sequence of element types without
// reallocating; the view's contents are unspecified and it is valid until
// the next call on the same buffer.
func ScratchAs[T Scalar](words *[]uint64, n int) []T {
	if n == 0 {
		return nil
	}
	need := (n*sizeOf[T]() + 7) / 8
	if cap(*words) < need {
		*words = make([]uint64, need)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(*words))), n)
}

// encodeInto appends the little-endian encoding of vals to dst and returns
// the extended slice.
func encodeInto[T Scalar](dst []byte, vals []T) []byte {
	if bulkCodec {
		return append(dst, asBytes(vals)...)
	}
	switch vs := any(vals).(type) {
	case []uint8:
		return append(dst, vs...)
	case []uint16:
		for _, v := range vs {
			dst = binary.LittleEndian.AppendUint16(dst, v)
		}
	case []uint32:
		for _, v := range vs {
			dst = binary.LittleEndian.AppendUint32(dst, v)
		}
	case []uint64:
		for _, v := range vs {
			dst = binary.LittleEndian.AppendUint64(dst, v)
		}
	case []int32:
		for _, v := range vs {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
		}
	case []int64:
		for _, v := range vs {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
		}
	case []float32:
		for _, v := range vs {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
		}
	case []float64:
		for _, v := range vs {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// decodeInto parses b into dst; len(b) must equal len(dst)*sizeOf[T]().
// Decoding into caller-retained storage is what keeps the steady-state
// collectives allocation-free.
func decodeInto[T Scalar](dst []T, b []byte) {
	if bulkCodec {
		copy(asBytes(dst), b)
		return
	}
	switch vs := any(dst).(type) {
	case []uint8:
		copy(vs, b)
	case []uint16:
		for i := range vs {
			vs[i] = binary.LittleEndian.Uint16(b[2*i:])
		}
	case []uint32:
		for i := range vs {
			vs[i] = binary.LittleEndian.Uint32(b[4*i:])
		}
	case []uint64:
		for i := range vs {
			vs[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
	case []int32:
		for i := range vs {
			vs[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
	case []int64:
		for i := range vs {
			vs[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
		}
	case []float32:
		for i := range vs {
			vs[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
		}
	case []float64:
		for i := range vs {
			vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
}

// decode parses b (a whole number of little-endian elements) into a []T.
func decode[T Scalar](b []byte) ([]T, error) {
	es := sizeOf[T]()
	if len(b)%es != 0 {
		return nil, fmt.Errorf("comm: message length %d not a multiple of element size %d", len(b), es)
	}
	out := make([]T, len(b)/es)
	decodeInto(out, b)
	return out, nil
}
