package comm

import (
	"encoding/binary"
	"fmt"

	"repro/internal/obs"
)

// Op identifies a reduction operator for Allreduce and scans.
type Op int

// Reduction operators. Min and Max follow Go's ordering for the element
// type; Sum wraps on integer overflow like Go arithmetic.
const (
	OpSum Op = iota
	OpMin
	OpMax
)

// corruptErr builds the rank-attributed CommError for a peer payload that
// failed validation (truncated or spliced in flight): fatal, not retryable.
func corruptErr(c *Comm, peer int, format string, args ...any) error {
	return &CommError{Rank: c.Rank(), Peer: peer, Kind: KindCorrupt, Attempt: 1, Err: fmt.Errorf(format, args...)}
}

// apply combines two values with op.
func apply[T Scalar](op Op, a, b T) T {
	switch op {
	case OpSum:
		return a + b
	case OpMin:
		if b < a {
			return b
		}
		return a
	case OpMax:
		if b > a {
			return b
		}
		return a
	default:
		panic("comm: unknown reduction op")
	}
}

// Alltoallv performs the paper's workhorse collective: send holds the
// concatenated per-destination segments (destination r's elements occupy
// send[offset[r] : offset[r]+counts[r]] where offset is the prefix sum of
// counts), and the call returns the concatenated segments received from
// every rank along with the per-source counts.
//
// The returned slices are freshly allocated; iterative callers should use
// AlltoallvInto with retained scratch instead.
func Alltoallv[T Scalar](c *Comm, send []T, counts []int) (recv []T, recvCounts []int, err error) {
	return AlltoallvInto(c, send, counts, nil, nil)
}

// AlltoallvInto is Alltoallv with caller-retained result storage: recv and
// recvCounts are reused when their capacity suffices and reallocated
// otherwise, so a loop that feeds each call's results back in allocates
// nothing once warm. Three further copies are gone relative to the naive
// path: the segment addressed to the caller's own rank skips the codec and
// the transport entirely (one straight copy from send to recv), encode
// buffers are retained on the Comm, and on borrowed-read transports the
// incoming bytes are decoded in place rather than copied out first.
func AlltoallvInto[T Scalar](c *Comm, send []T, counts []int, recv []T, recvCounts []int) ([]T, []int, error) {
	size := c.Size()
	self := c.Rank()
	if len(counts) != size {
		return nil, nil, fmt.Errorf("comm: Alltoallv counts has %d entries for %d ranks", len(counts), size)
	}
	c.enter(obs.CAlltoallv)
	es := sizeOf[T]()
	out := c.sendBuffers()
	pos := 0
	selfLo, selfHi := 0, 0
	for r := 0; r < size; r++ {
		n := counts[r]
		if n < 0 || pos+n > len(send) {
			return nil, nil, fmt.Errorf("comm: Alltoallv counts sum beyond len(send)=%d", len(send))
		}
		if r == self {
			// Self fast path: this segment never touches the codec or the
			// transport; it is copied straight into recv below.
			selfLo, selfHi = pos, pos+n
		} else {
			c.outBufs[r] = encodeInto(c.outBufs[r][:0], send[pos:pos+n])
			out[r] = c.outBufs[r]
		}
		pos += n
	}
	if pos != len(send) {
		return nil, nil, fmt.Errorf("comm: Alltoallv counts sum %d != len(send) %d", pos, len(send))
	}
	c.xself = uint64((selfHi - selfLo) * es)

	in, err := c.beginExchange(out)
	if err != nil {
		return nil, nil, err
	}
	if cap(recvCounts) >= size {
		recvCounts = recvCounts[:size]
	} else {
		recvCounts = make([]int, size)
	}
	var derr error
	total := 0
	for r, m := range in {
		if r == self {
			recvCounts[r] = selfHi - selfLo
		} else if len(m)%es != 0 {
			derr = corruptErr(c, r, "comm: Alltoallv message from rank %d has ragged length %d", r, len(m))
			break
		} else {
			recvCounts[r] = len(m) / es
		}
		total += recvCounts[r]
	}
	if derr == nil {
		if cap(recv) >= total {
			recv = recv[:total]
		} else {
			recv = make([]T, total)
		}
		off := 0
		for r := 0; r < size; r++ {
			n := recvCounts[r]
			if r == self {
				copy(recv[off:off+n], send[selfLo:selfHi])
			} else {
				decodeInto(recv[off:off+n], in[r])
			}
			off += n
		}
	}
	if err := c.endExchange(out, in); err != nil && derr == nil {
		derr = err
	}
	if derr != nil {
		return nil, nil, derr
	}
	return recv, recvCounts, nil
}

// broadcastBuffers encodes vals once into the retained scratch and points
// every off-rank slot of the header at that one buffer (the self slot never
// ships; its unused encode buffer is the natural home for the shared
// message).
func broadcastBuffers[T Scalar](c *Comm, vals []T) [][]byte {
	self := c.Rank()
	out := c.sendBuffers()
	c.outBufs[self] = encodeInto(c.outBufs[self][:0], vals)
	for r := range out {
		if r != self {
			out[r] = c.outBufs[self]
		}
	}
	return out
}

// Allgather distributes each rank's value to every rank; the result is
// indexed by rank.
func Allgather[T Scalar](c *Comm, v T) ([]T, error) {
	size := c.Size()
	self := c.Rank()
	c.enter(obs.CAllgather)
	es := sizeOf[T]()
	vv := [1]T{v}
	out := broadcastBuffers(c, vv[:])
	c.xself = uint64(es)
	in, err := c.beginExchange(out)
	if err != nil {
		return nil, err
	}
	res := make([]T, size)
	var derr error
	for r, m := range in {
		if r == self {
			res[r] = v
		} else if len(m) != es {
			derr = corruptErr(c, r, "comm: Allgather bad message from rank %d", r)
			break
		} else {
			decodeInto(res[r:r+1], m)
		}
	}
	if err := c.endExchange(out, in); err != nil && derr == nil {
		derr = err
	}
	if derr != nil {
		return nil, derr
	}
	return res, nil
}

// Allgatherv concatenates every rank's slice in rank order. counts reports
// how many elements each rank contributed.
func Allgatherv[T Scalar](c *Comm, vals []T) (all []T, counts []int, err error) {
	size := c.Size()
	self := c.Rank()
	c.enter(obs.CAllgatherv)
	es := sizeOf[T]()
	out := broadcastBuffers(c, vals)
	c.xself = uint64(len(vals) * es)
	in, err := c.beginExchange(out)
	if err != nil {
		return nil, nil, err
	}
	counts = make([]int, size)
	var derr error
	total := 0
	for r, m := range in {
		if r == self {
			counts[r] = len(vals)
		} else if len(m)%es != 0 {
			derr = corruptErr(c, r, "comm: Allgatherv message from rank %d has ragged length %d", r, len(m))
			break
		} else {
			counts[r] = len(m) / es
		}
		total += counts[r]
	}
	if derr == nil {
		all = make([]T, total)
		off := 0
		for r := 0; r < size; r++ {
			n := counts[r]
			if r == self {
				copy(all[off:off+n], vals)
			} else {
				decodeInto(all[off:off+n], in[r])
			}
			off += n
		}
	}
	if err := c.endExchange(out, in); err != nil && derr == nil {
		derr = err
	}
	if derr != nil {
		return nil, nil, derr
	}
	return all, counts, nil
}

// Bcast distributes root's vals to every rank and returns the received
// copy; on root it returns vals itself. Non-root callers pass their
// (ignored) local slice or nil.
func Bcast[T Scalar](c *Comm, vals []T, root int) ([]T, error) {
	size := c.Size()
	self := c.Rank()
	if root < 0 || root >= size {
		return nil, fmt.Errorf("comm: Bcast root %d out of range", root)
	}
	c.enter(obs.CBcast)
	var out [][]byte
	if self == root {
		out = broadcastBuffers(c, vals)
		c.xself = uint64(len(vals) * sizeOf[T]())
	} else {
		out = c.sendBuffers()
	}
	in, err := c.beginExchange(out)
	if err != nil {
		return nil, err
	}
	var res []T
	var derr error
	if self != root {
		es := sizeOf[T]()
		if len(in[root])%es != 0 {
			derr = corruptErr(c, root, "comm: Bcast message length %d not a multiple of element size %d", len(in[root]), es)
		} else {
			res = make([]T, len(in[root])/es)
			decodeInto(res, in[root])
		}
	}
	if err := c.endExchange(out, in); err != nil && derr == nil {
		derr = err
	}
	if derr != nil {
		return nil, derr
	}
	if self == root {
		return vals, nil
	}
	return res, nil
}

// Allreduce combines one value per rank with op and returns the result on
// every rank.
func Allreduce[T Scalar](c *Comm, v T, op Op) (T, error) {
	c.enter(obs.CAllreduce)
	all, err := Allgather(c, v)
	if err != nil {
		var z T
		return z, err
	}
	acc := all[0]
	for _, x := range all[1:] {
		acc = apply(op, acc, x)
	}
	return acc, nil
}

// AllreduceSlice element-wise combines equal-length slices from every rank.
func AllreduceSlice[T Scalar](c *Comm, vals []T, op Op) ([]T, error) {
	c.enter(obs.CAllreduce)
	all, counts, err := Allgatherv(c, vals)
	if err != nil {
		return nil, err
	}
	n := len(vals)
	for r, cnt := range counts {
		if cnt != n {
			return nil, fmt.Errorf("comm: AllreduceSlice rank %d contributed %d elements, want %d", r, cnt, n)
		}
	}
	res := make([]T, n)
	copy(res, all[:n])
	for r := 1; r < len(counts); r++ {
		seg := all[r*n : (r+1)*n]
		for i, x := range seg {
			res[i] = apply(op, res[i], x)
		}
	}
	return res, nil
}

// ExScan returns the exclusive prefix reduction over ranks: rank r receives
// op(v_0, ..., v_{r-1}), and rank 0 receives id (the caller's identity
// element for op).
func ExScan[T Scalar](c *Comm, v T, op Op, id T) (T, error) {
	c.enter(obs.CScan)
	all, err := Allgather(c, v)
	if err != nil {
		var z T
		return z, err
	}
	acc := id
	for r := 0; r < c.Rank(); r++ {
		acc = apply(op, acc, all[r])
	}
	return acc, nil
}

// MaxLoc returns the globally maximal value together with its attached
// payload (e.g. a vertex id) and owning rank. Ties break toward the lowest
// rank, so every rank computes the same winner.
//
// Value and payload travel as one fused (value, payload) message, so MaxLoc
// costs a single transport round — half the barriers of the two
// back-to-back Allgathers it replaces (it sits on SCC's per-round pivot
// selection).
func MaxLoc[T Scalar](c *Comm, v T, payload uint64) (maxVal T, maxPayload uint64, maxRank int, err error) {
	self := c.Rank()
	c.enter(obs.CMaxLoc)
	es := sizeOf[T]()
	vv := [1]T{v}
	out := c.sendBuffers()
	c.xself = uint64(es + 8)
	buf := encodeInto(c.outBufs[self][:0], vv[:])
	buf = binary.LittleEndian.AppendUint64(buf, payload)
	c.outBufs[self] = buf
	for r := range out {
		if r != self {
			out[r] = buf
		}
	}
	in, err := c.beginExchange(out)
	if err != nil {
		var z T
		return z, 0, 0, err
	}
	maxRank = -1
	var derr error
	for r, m := range in {
		var val T
		var pl uint64
		if r == self {
			val, pl = v, payload
		} else if len(m) != es+8 {
			derr = corruptErr(c, r, "comm: MaxLoc bad message from rank %d", r)
			break
		} else {
			var one [1]T
			decodeInto(one[:], m[:es])
			val, pl = one[0], binary.LittleEndian.Uint64(m[es:])
		}
		if maxRank < 0 || val > maxVal {
			maxVal, maxPayload, maxRank = val, pl, r
		}
	}
	if err := c.endExchange(out, in); err != nil && derr == nil {
		derr = err
	}
	if derr != nil {
		var z T
		return z, 0, 0, derr
	}
	return maxVal, maxPayload, maxRank, nil
}
