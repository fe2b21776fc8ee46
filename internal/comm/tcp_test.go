package comm

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// reservePorts grabs n distinct loopback ports by briefly listening on
// ephemeral ports. There is a small inherent race between closing and the
// mesh re-listening, acceptable in tests.
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// runTCPGroup runs fn SPMD over a freshly dialed TCP mesh of size ranks.
func runTCPGroup(t *testing.T, size int, fn func(c *Comm) error) {
	t.Helper()
	addrs := reservePorts(t, size)
	var wg sync.WaitGroup
	errs := make([]error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := DialMesh(r, addrs, 10*time.Second)
			if err != nil {
				errs[r] = fmt.Errorf("dial: %w", err)
				return
			}
			c := New(tr)
			defer c.Close()
			errs[r] = fn(c)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestTCPMeshBarrierAndAlltoallv(t *testing.T) {
	for _, size := range []int{1, 2, 4} {
		size := size
		t.Run(fmt.Sprintf("ranks=%d", size), func(t *testing.T) {
			runTCPGroup(t, size, func(c *Comm) error {
				if err := c.Barrier(); err != nil {
					return err
				}
				// Same round-trip pattern as the in-process test.
				var send []uint32
				counts := make([]int, size)
				for d := 0; d < size; d++ {
					counts[d] = d + 1
					for k := 0; k <= d; k++ {
						send = append(send, uint32(c.Rank()*100+d*10+k))
					}
				}
				recv, recvCounts, err := Alltoallv(c, send, counts)
				if err != nil {
					return err
				}
				pos := 0
				for s := 0; s < size; s++ {
					if recvCounts[s] != c.Rank()+1 {
						return fmt.Errorf("recvCounts[%d] = %d", s, recvCounts[s])
					}
					for k := 0; k <= c.Rank(); k++ {
						want := uint32(s*100 + c.Rank()*10 + k)
						if recv[pos] != want {
							return fmt.Errorf("recv[%d] = %d, want %d", pos, recv[pos], want)
						}
						pos++
					}
				}
				return nil
			})
		})
	}
}

func TestTCPMeshRepeatedCollectives(t *testing.T) {
	runTCPGroup(t, 3, func(c *Comm) error {
		for i := 0; i < 25; i++ {
			sum, err := Allreduce(c, uint64(c.Rank()+i), OpSum)
			if err != nil {
				return err
			}
			want := uint64(0+1+2) + uint64(3*i)
			if sum != want {
				return fmt.Errorf("iter %d: sum = %d, want %d", i, sum, want)
			}
		}
		return nil
	})
}

func TestTCPMeshLargePayload(t *testing.T) {
	runTCPGroup(t, 2, func(c *Comm) error {
		// Symmetric 4 MiB payloads both directions; must not deadlock on
		// kernel socket buffers.
		const n = 1 << 20
		send := make([]uint32, 2*n)
		for i := range send {
			send[i] = uint32(i) ^ uint32(c.Rank())
		}
		recv, _, err := Alltoallv(c, send, []int{n, n})
		if err != nil {
			return err
		}
		peer := 1 - c.Rank()
		for i := 0; i < n; i++ {
			want := uint32(n*c.Rank()+i) ^ uint32(peer)
			if recv[n*peer+i] != want {
				return fmt.Errorf("large payload corrupted at %d", i)
			}
		}
		return nil
	})
}

func TestDialMeshBadRank(t *testing.T) {
	if _, err := DialMesh(3, []string{"127.0.0.1:1", "127.0.0.1:2"}, time.Second); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
}

func TestDialMeshTimeout(t *testing.T) {
	// Rank 1 never appears. Its reserved listener stays open, never
	// accepting, for the whole test, so no concurrently running package can
	// bind the port; rank 0 waits to accept rank 1 and must time out.
	absent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserve port: %v", err)
	}
	defer absent.Close()
	addrs := []string{reservePorts(t, 1)[0], absent.Addr().String()}
	start := time.Now()
	_, err = DialMesh(0, addrs, 300*time.Millisecond)
	if err == nil {
		t.Fatal("mesh established without peer")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("timeout took %v", time.Since(start))
	}
}
