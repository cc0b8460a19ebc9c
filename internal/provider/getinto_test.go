package provider

import (
	"bytes"
	"context"
	"net"
	"runtime"
	"sync/atomic"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/rpc"
	"blobseer/internal/store"
	"blobseer/internal/wire"
)

// noLend hides everything but store.Store of a backend: handleGetBlock's
// fallback for a store that cannot lend.
type noLend struct{ store.Store }

// TestGetInto: the bytes land in dst whether the store lent them, lent
// their file or read them into the frame; a block shorter than dst
// yields its count and leaves the rest of dst to the caller; a miss
// leaves all of it.
func TestGetInto(t *testing.T) {
	for name, st := range map[string]store.Store{"lends": store.NewMemStore(), "files": fileStore(t), "reads": noLend{store.NewMemStore()}} {
		t.Run(name, func(t *testing.T) {
			n := rpc.NewInprocNetwork()
			lis, err := n.Listen("p")
			if err != nil {
				t.Fatal(err)
			}
			srv := rpc.NewServer(NewService(st).Mux())
			go srv.Serve(lis)
			defer srv.Close()
			pool := rpc.NewPool(n.Dial)
			defer pool.Close()
			c, ctx := NewClient(pool), context.Background()

			key := blob.BlockKey{Blob: 1, Nonce: 7, Seq: 3}
			data := bytes.Repeat([]byte("0123456789"), 5000)
			if err := c.PutChained(ctx, []string{"p"}, key, data, 0); err != nil {
				t.Fatal(err)
			}
			for _, tc := range []struct{ off, ask, want int }{
				{0, len(data), len(data)}, // whole block
				{12345, 20_000, 20_000},   // inside it
				{40_000, 30_000, 10_000},  // short: the block ends first
				{len(data), 100, 0},       // at its end
				{0, 0, 0},                 // nothing asked for
			} {
				dst := bytes.Repeat([]byte{0xAA}, tc.ask+8)
				got, err := c.GetInto(ctx, "p", key, int64(tc.off), dst[:tc.ask])
				if err != nil || got != tc.want || !bytes.Equal(dst[:got], data[tc.off:tc.off+got]) {
					t.Fatalf("GetInto(%d bytes at %d) = %d, %v; want %d of the block's bytes", tc.ask, tc.off, got, err, tc.want)
				}
				if rest := dst[got:]; !bytes.Equal(rest, bytes.Repeat([]byte{0xAA}, len(rest))) {
					t.Fatalf("GetInto(%d bytes at %d) wrote past the %d bytes it returned", tc.ask, tc.off, got)
				}
			}
			dst := bytes.Repeat([]byte{0xAA}, 100)
			missing := blob.BlockKey{Blob: 1, Nonce: 7, Seq: 4}
			if _, err := c.GetInto(ctx, "p", missing, 0, dst); rpc.CodeOf(err) != CodeNotFound {
				t.Fatalf("GetInto of a missing block = %v, want CodeNotFound", err)
			}
			if !bytes.Equal(dst, bytes.Repeat([]byte{0xAA}, 100)) {
				t.Error("a miss wrote into dst")
			}
			// Get returns as many bytes as the block had there.
			if got, err := c.Get(ctx, "p", key, 49_990, 100); err != nil || string(got) != "0123456789" {
				t.Fatalf("Get past the end = %q, %v", got, err)
			}
		})
	}
}

// countedTCP counts the Write calls on a TCP connection. Embedding the
// concrete type keeps its vectored write, which net.Buffers finds by an
// unexported method: a tailed frame goes out as one writev and is not a
// Write at all, unless rpc fell back to writing head and tail apart.
type countedTCP struct {
	*net.TCPConn
	writes *atomic.Int64
}

func (c countedTCP) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.TCPConn.Write(p)
}

type countedListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countedTCP{c.(*net.TCPConn), l.writes}, nil
}

// BenchmarkPutGet1M is the data path's per-hop budget over loopback TCP
// on a mem:// store: one 1 MB block put down a chain of one, then read
// back into the caller's buffer. Both directions carry the block by
// reference, so an op allocates the store's resident copy and little
// else; and of its four frames the two that carry the block are one
// writev each, leaving two plain Writes — a tailed frame that lost the
// vectored write would show as two more.
func BenchmarkPutGet1M(b *testing.B) {
	// About 4 per op since the provider recycles its upload records and
	// block writers, the stored block and its key among them, and a
	// quarter of headroom (26 until then: 5.8 per op, 7 while the
	// provider built each read key's string, 9 before a mem:// get ran on
	// the connection's goroutine, 28 while the op copied the block into
	// and out of frames).
	const budgetAllocs = 5
	wire.PoisonReleased(false)
	defer wire.PoisonReleased(true)
	lis, err := rpc.ListenTCP("127.0.0.1:0")
	if err != nil {
		b.Skipf("cannot listen on loopback: %v", err)
	}
	var writes atomic.Int64
	srv := rpc.NewServer(NewService(store.NewMemStore()).Mux())
	go srv.Serve(countedListener{lis, &writes})
	defer srv.Close()
	pool := rpc.NewPool(func(addr string) (net.Conn, error) {
		c, err := rpc.TCPDialer(addr)
		if err != nil {
			return nil, err
		}
		return countedTCP{c.(*net.TCPConn), &writes}, nil
	})
	defer pool.Close()
	c, ctx, addr := NewClient(pool), context.Background(), lis.Addr().String()

	const size = 1 << 20
	data, dst := bytes.Repeat([]byte{0x5A}, size), make([]byte, size)
	op := func(i int) {
		key := blob.BlockKey{Blob: 1, Nonce: 1, Seq: uint32(i % 64)} // overwrite: the store stays small
		if err := c.PutChained(ctx, []string{addr}, key, data, 0); err != nil {
			b.Fatal(err)
		}
		if n, err := c.GetInto(ctx, addr, key, 0, dst); err != nil || n != size {
			b.Fatal(n, err)
		}
	}
	op(0) // dial, fill the free lists
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	writes.Store(0)
	b.SetBytes(2 * size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if !bytes.Equal(dst, data) {
		b.Fatal("read back other bytes than written")
	}
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N) / size
	allocs := float64(after.Mallocs-before.Mallocs) / float64(b.N)
	// Two vectored writes per op by construction, plus the Writes counted.
	perFrame := (2 + float64(writes.Load())/float64(b.N)) / 4
	b.ReportMetric(perByte, "alloc-B/payload-B")
	b.ReportMetric(allocs, "allocs/put+get")
	b.ReportMetric(perFrame, "conn-writes/frame")
	if b.N >= 20 && (perByte > 1.02 || allocs > budgetAllocs || perFrame > 1) {
		b.Errorf("%.3f B/B, %.1f allocations and %.2f conn writes per frame for a 1 MB put and get, want at most 1.02, %d and 1",
			perByte, allocs, perFrame, budgetAllocs)
	}
}
