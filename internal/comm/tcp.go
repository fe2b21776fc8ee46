package comm

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// tcpMagic begins every frame so desynchronized streams fail fast instead
// of mis-parsing payload bytes as headers.
const tcpMagic = 0x47583031 // "GX01"

// maxFrameLen bounds a single message; larger graphs exchange more, smaller
// frames. 1 GiB is far beyond anything the harness sends and exists only to
// turn stream corruption into an error instead of an OOM.
const maxFrameLen = 1 << 30

// TCPTransport connects a rank into a full mesh of TCP connections, one
// per peer, and implements the same Exchange contract as the in-process
// transport. Every rank must be started with the same address list; rank r
// listens on addrs[r].
type TCPTransport struct {
	rank  int
	size  int
	peers []net.Conn // indexed by rank; peers[rank] == nil
	seq   uint64

	// frameDeadline, when positive, bounds every per-frame read and write:
	// a peer that stalls longer surfaces a timeout error instead of
	// hanging the rank forever. Timeouts are fatal (the round state is
	// indeterminate); recovery is a fresh mesh and a checkpoint resume.
	frameDeadline time.Duration

	// Retained receive storage: inBufs holds one reusable payload buffer
	// per peer (released when its frames stop needing it, see
	// retainIdleFrames), inIdle the frames each peer's buffer has idled
	// through, inViews the header slice Exchange returns. Reused only at
	// the next Exchange, which the round contract orders after Release.
	inBufs  [][]byte
	inIdle  []int
	inViews [][]byte

	closeOnce sync.Once
	closeErr  error
}

// DialMesh establishes the mesh. Ranks may start in any order: each rank
// listens on addrs[rank], dials every lower rank (retrying until timeout),
// and accepts connections from every higher rank, then closes its listener.
// The returned transport is ready for collectives on all ranks once every
// rank's DialMesh returns.
func DialMesh(rank int, addrs []string, timeout time.Duration) (*TCPTransport, error) {
	size := len(addrs)
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("comm: rank %d out of range for %d addresses", rank, size)
	}
	if timeout <= 0 {
		timeout = 30 * time.Second
	}

	t := &TCPTransport{rank: rank, size: size, peers: make([]net.Conn, size)}

	ln, err := net.Listen("tcp", addrs[rank])
	if err != nil {
		return nil, fmt.Errorf("comm: rank %d listen %s: %w", rank, addrs[rank], err)
	}
	err = t.establish(ln, addrs, time.Now().Add(timeout))
	ln.Close()
	if err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

// establish connects this rank to every peer: accept from higher ranks on
// ln, dial lower ranks (retrying while their listeners come up).
func (t *TCPTransport) establish(ln net.Listener, addrs []string, deadline time.Time) error {
	rank, size := t.rank, t.size

	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	// Accept connections from higher-numbered ranks.
	nAccept := size - 1 - rank
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < nAccept; i++ {
			if d, ok := ln.(*net.TCPListener); ok {
				_ = d.SetDeadline(deadline)
			}
			conn, err := ln.Accept()
			if err != nil {
				fail(fmt.Errorf("comm: rank %d accept: %w", rank, err))
				return
			}
			var hello [8]byte
			if _, err := io.ReadFull(conn, hello[:]); err != nil {
				fail(fmt.Errorf("comm: rank %d handshake read: %w", rank, err))
				conn.Close()
				return
			}
			if binary.LittleEndian.Uint32(hello[:4]) != tcpMagic {
				fail(fmt.Errorf("comm: rank %d bad handshake magic", rank))
				conn.Close()
				return
			}
			peer := int(binary.LittleEndian.Uint32(hello[4:]))
			if peer <= rank || peer >= size {
				fail(fmt.Errorf("comm: rank %d handshake from invalid peer %d", rank, peer))
				conn.Close()
				return
			}
			mu.Lock()
			dup := t.peers[peer] != nil
			if !dup {
				t.peers[peer] = conn
			}
			mu.Unlock()
			if dup {
				fail(fmt.Errorf("comm: rank %d duplicate connection from peer %d", rank, peer))
				conn.Close()
				return
			}
			tuneConn(conn)
		}
	}()

	// Dial lower-numbered ranks, retrying while their listeners come up.
	for peer := 0; peer < rank; peer++ {
		wg.Add(1)
		go func(peer int) {
			defer wg.Done()
			var conn net.Conn
			var err error
			for {
				d := net.Dialer{Deadline: deadline}
				conn, err = d.Dial("tcp", addrs[peer])
				if err == nil {
					break
				}
				if time.Now().After(deadline) {
					fail(fmt.Errorf("comm: rank %d dial rank %d (%s): %w", rank, peer, addrs[peer], err))
					return
				}
				time.Sleep(20 * time.Millisecond)
			}
			var hello [8]byte
			binary.LittleEndian.PutUint32(hello[:4], tcpMagic)
			binary.LittleEndian.PutUint32(hello[4:], uint32(rank))
			if _, err := conn.Write(hello[:]); err != nil {
				fail(fmt.Errorf("comm: rank %d handshake write to %d: %w", rank, peer, err))
				conn.Close()
				return
			}
			tuneConn(conn)
			mu.Lock()
			t.peers[peer] = conn
			mu.Unlock()
		}(peer)
	}

	wg.Wait()
	return firstErr
}

// SetExchangeDeadline bounds every per-frame read and write of subsequent
// exchanges; d <= 0 (the default) disables deadlines. A peer that stalls
// longer than d surfaces a timeout error (CommError KindTimeout through the
// collectives) instead of blocking the rank forever.
func (t *TCPTransport) SetExchangeDeadline(d time.Duration) { t.frameDeadline = d }

func tuneConn(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
}

// Rank implements Transport.
func (t *TCPTransport) Rank() int { return t.rank }

// Size implements Transport.
func (t *TCPTransport) Size() int { return t.size }

// Exchange implements Transport. Sends to all peers proceed concurrently
// with receives from all peers, so large symmetric exchanges cannot
// deadlock on full kernel buffers. Incoming payloads land in the
// transport's retained per-peer buffers and the self slot aliases the
// caller's own message — no steady-state allocation and no self copy.
// Exchange returns only after every send has been written, so out is never
// read after it returns and Release needs no closing synchronization. The
// wait estimate is the time between completing local sends and completing
// all receives — the portion spent blocked on slower peers.
func (t *TCPTransport) Exchange(out [][]byte) ([][]byte, time.Duration, error) {
	if len(out) != t.size {
		return nil, 0, fmt.Errorf("comm: Exchange with %d messages for %d ranks", len(out), t.size)
	}
	t.seq++
	seq := t.seq

	if t.inViews == nil {
		t.inViews = make([][]byte, t.size)
		t.inBufs = make([][]byte, t.size)
		t.inIdle = make([]int, t.size)
	}
	in := t.inViews
	// Self-delivery is a borrowed alias of the caller's own message.
	in[t.rank] = out[t.rank]

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	var sendsDone time.Time
	var sendWG sync.WaitGroup
	for peer := 0; peer < t.size; peer++ {
		if peer == t.rank {
			continue
		}
		wg.Add(2)
		sendWG.Add(1)

		go func(peer int) { // sender
			defer wg.Done()
			defer sendWG.Done()
			conn := t.peers[peer]
			if t.frameDeadline > 0 {
				_ = conn.SetWriteDeadline(time.Now().Add(t.frameDeadline))
			}
			if err := writeFrame(conn, seq, out[peer]); err != nil {
				fail(t.peerErr(peer, fmt.Errorf("send to %d: %w", peer, err)))
			}
		}(peer)

		go func(peer int) { // receiver
			defer wg.Done()
			conn := t.peers[peer]
			if t.frameDeadline > 0 {
				_ = conn.SetReadDeadline(time.Now().Add(t.frameDeadline))
			}
			payload, gotSeq, err := readFrame(conn, t.inBufs[peer])
			if err != nil {
				fail(t.peerErr(peer, fmt.Errorf("recv from %d: %w", peer, err)))
				return
			}
			if gotSeq != seq {
				fail(&CommError{Rank: t.rank, Peer: peer, Kind: KindCorrupt,
					Err: fmt.Errorf("recv from %d: sequence %d, want %d", peer, gotSeq, seq)})
				return
			}
			t.retain(peer, payload)
			in[peer] = payload
		}(peer)
	}

	done := make(chan struct{})
	go func() {
		sendWG.Wait()
		sendsDone = time.Now()
		close(done)
	}()
	wg.Wait()
	<-done

	if firstErr != nil {
		return nil, 0, firstErr
	}
	wait := time.Since(sendsDone)
	if wait < 0 {
		wait = 0
	}
	return in, wait, nil
}

// Release implements Transport. TCP receive buffers are private to this
// transport, so no closing synchronization is needed; they stay valid until
// the next Exchange.
func (t *TCPTransport) Release() (time.Duration, error) { return 0, nil }

// peerErr promotes a per-peer exchange failure to a peer-attributed
// *CommError. Comm.wrapErr leaves an existing CommError intact, so the
// implicated peer survives to the collective's caller — the serve layer's
// failover attribution majority-votes over these Peer fields to decide
// which host died.
func (t *TCPTransport) peerErr(peer int, err error) error {
	return &CommError{Rank: t.rank, Peer: peer, Kind: Classify(err), Err: err}
}

func writeFrame(conn net.Conn, seq uint64, payload []byte) error {
	var hdr [20]byte
	binary.LittleEndian.PutUint32(hdr[0:4], tcpMagic)
	binary.LittleEndian.PutUint64(hdr[4:12], seq)
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(len(payload)))
	if _, err := conn.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := conn.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// frameAllocChunk caps how far ahead of verified stream data the receiver
// allocates: a frame longer than one chunk is received incrementally, so a
// corrupt or hostile length header can waste at most one chunk of memory
// beyond the bytes that actually arrive, never the full advertised length.
const frameAllocChunk = 1 << 20

// retainSmall is the receive-buffer capacity a peer may keep whatever the
// frames it carries; retainIdleFrames is how many frames in a row a larger
// buffer may go without one that fills at least a quarter of it before it
// is released. Small collectives between large rounds (a BFS level's
// Allreduce, a PageRank iteration's residual) read into the large buffer
// and keep it; a build's edge shuffle followed only by small rounds is not
// held for the transport's life.
const (
	retainSmall      = 64 << 10
	retainIdleFrames = 32
)

// retain keeps payload's storage as peer's receive buffer for the next
// Exchange, or releases it once a large buffer has idled through
// retainIdleFrames frames.
func (t *TCPTransport) retain(peer int, payload []byte) {
	if cap(payload) <= retainSmall || 4*len(payload) >= cap(payload) {
		t.inIdle[peer] = 0
	} else if t.inIdle[peer]++; t.inIdle[peer] >= retainIdleFrames {
		t.inIdle[peer] = 0
		payload = nil
	}
	t.inBufs[peer] = payload
}

// readFrame reads one length-framed message from r, receiving the payload
// into buf when its capacity suffices and allocating (incrementally, see
// frameAllocChunk) otherwise. It validates the magic and length bounds and
// returns an error — never panics, never over-allocates — on a truncated,
// oversized, or corrupted frame.
func readFrame(r io.Reader, buf []byte) (payload []byte, seq uint64, err error) {
	var hdr [20]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, err
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != tcpMagic {
		return nil, 0, fmt.Errorf("bad frame magic")
	}
	seq = binary.LittleEndian.Uint64(hdr[4:12])
	n64 := binary.LittleEndian.Uint64(hdr[12:20])
	if n64 > maxFrameLen {
		return nil, 0, fmt.Errorf("frame length %d exceeds limit", n64)
	}
	n := int(n64)
	if cap(buf) >= n {
		payload = buf[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, 0, err
		}
		return payload, seq, nil
	}
	payload = make([]byte, 0, min(n, frameAllocChunk))
	for len(payload) < n {
		chunk := min(n-len(payload), frameAllocChunk)
		lo := len(payload)
		if cap(payload) < lo+chunk {
			nc := min(max(2*cap(payload), lo+chunk), n)
			grown := make([]byte, lo, nc)
			copy(grown, payload)
			payload = grown
		}
		payload = payload[:lo+chunk]
		if _, err := io.ReadFull(r, payload[lo:]); err != nil {
			return nil, 0, err
		}
	}
	return payload, seq, nil
}

// Close tears down all connections. Peers blocked in Exchange observe read
// errors, so Close doubles as the abort mechanism for the TCP transport.
func (t *TCPTransport) Close() error {
	t.closeOnce.Do(func() {
		for _, c := range t.peers {
			if c != nil {
				if err := c.Close(); err != nil && t.closeErr == nil {
					t.closeErr = err
				}
			}
		}
	})
	return t.closeErr
}

// Abort satisfies the aborter interface used by RunOn.
func (t *TCPTransport) Abort() { _ = t.Close() }
