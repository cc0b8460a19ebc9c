package provider

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/rpc"
	"blobseer/internal/store"
	"blobseer/internal/wire"
)

// fileStore is a file:// store in a directory of the test's.
func fileStore(t testing.TB) *store.FSStore {
	t.Helper()
	st, err := store.NewFSStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// openFiles counts the process's open file descriptors.
func openFiles(t testing.TB) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count open files: %v", err)
	}
	return len(fds)
}

// serveOn serves a provider over st on loopback TCP, where file tails go
// out by sendfile, or on an inproc network, where they are copied, and
// returns its address and a dialer of it.
func serveOn(t testing.TB, tcp bool, st store.Store) (string, rpc.Dialer) {
	t.Helper()
	var lis net.Listener
	var err error
	dial := rpc.TCPDialer
	if tcp {
		lis, err = rpc.ListenTCP("127.0.0.1:0")
	} else {
		n := rpc.NewInprocNetwork()
		lis, err = n.Listen("p")
		dial = n.Dial
	}
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	srv := rpc.NewServer(NewService(st).Mux())
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	return lis.Addr().String(), dial
}

// clientOf returns a provider client dialing with dial whose
// connections report a peer on another host (elsewhere): its gets ask
// for bytes, which a file:// provider sends from its files.
func clientOf(t testing.TB, dial rpc.Dialer) *Client { return localClient(t, elsewhere(dial)) }

// localClient returns a provider client dialing with dial, which gets
// by name from a file:// provider its connection shows on its host.
func localClient(t testing.TB, dial rpc.Dialer) *Client {
	pool := rpc.NewPool(dial)
	t.Cleanup(pool.Close)
	return NewClient(pool)
}

// elsewhere dials with dial, but its connections report a peer on
// another host.
func elsewhere(dial rpc.Dialer) rpc.Dialer {
	return func(addr string) (net.Conn, error) {
		conn, err := dial(addr)
		if err != nil {
			return nil, err
		}
		return remoteConn{conn}, nil
	}
}

type remoteConn struct{ net.Conn }

func (remoteConn) RemoteAddr() net.Addr { return &net.TCPAddr{IP: net.IPv4(192, 0, 2, 1), Port: 7000} }

// getRequest is an untraced mGetBlock request frame with id 7.
func getRequest(ranges ...[]byte) []byte {
	payload := bytes.Join(ranges, nil)
	b := binary.BigEndian.AppendUint32(nil, uint32(13+len(payload)))
	b = binary.BigEndian.AppendUint64(b, 7)
	b = binary.BigEndian.AppendUint16(b, mGetBlock)
	return append(append(b, 0, 0, 0), payload...)
}

// pattern is n bytes no two of which repeat in step.
func pattern(n, seed int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + i>>8 + seed)
	}
	return p
}

// TestGetFileWireBytes: a file:// provider's response, its pieces sent as
// file tails, is on the wire byte for byte the response of a provider
// reading the same store into the frame — over TCP (sendfile) and over a
// pipe (copied through a buffer).
func TestGetFileWireBytes(t *testing.T) {
	st := fileStore(t)
	k0, k1 := blob.BlockKey{Blob: 1, Nonce: 2}, blob.BlockKey{Blob: 1, Nonce: 2, Seq: 1}
	st.Put(k0.String(), pattern(300_000, 0))
	st.Put(k1.String(), pattern(5_000, 1))
	req := getRequest(
		encodeRange(k0, 1_000, 200_000),
		encodeRange(k1, 4_000, 3_000), // short: the block ends first
		encodeRange(k0, 300_000, 10),  // at the block's end
		encodeRange(k1, -5, 100),      // a negative offset reads from 0
	)
	const wantLen = 13 + 4*4 + 200_000 + 1_000 + 0 + 100
	for _, tcp := range []bool{false, true} {
		var resps [2][]byte
		for i, s := range []store.Store{st, noLend{st}} {
			addr, dial := serveOn(t, tcp, s)
			conn, err := dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(req); err != nil {
				t.Fatal(err)
			}
			if resps[i], err = wire.ReadFrame(conn, 0); err != nil {
				t.Fatal(err)
			}
		}
		if len(resps[1]) != wantLen || !bytes.Equal(resps[0], resps[1]) {
			t.Errorf("tcp=%v: response from the files (%d bytes) differs from the copied one (%d bytes, want %d)", tcp, len(resps[0]), len(resps[1]), wantLen)
		}
	}
}

// TestGetFileReleasedUnsent: a response whose second range is missing is
// released unsent, and releasing it closes the file lent for the first:
// 1,000 such gets leave as many files open as before.
func TestGetFileReleasedUnsent(t *testing.T) {
	st := fileStore(t)
	key := blob.BlockKey{Blob: 1, Nonce: 3}
	st.Put(key.String(), pattern(1_000, 0))
	svc := NewService(st)
	req := append(encodeRange(key, 0, 100), encodeRange(blob.BlockKey{Blob: 1, Nonce: 3, Seq: 1}, 0, 100)...)
	before := openFiles(t)
	for i := 0; i < 1_000; i++ {
		if _, err := svc.handleGetBlock(context.Background(), req); err != ErrBlockNotFound {
			t.Fatalf("get with a missing range = %v, want ErrBlockNotFound", err)
		}
	}
	if after := openFiles(t); after != before {
		t.Errorf("%d files open after 1,000 failed gets, %d before", after, before)
	}
}

// lendHook runs after each file the store lends, before it is sent.
type lendHook struct {
	*store.FSStore
	after func(f *os.File, off, n int64)
}

func (s lendHook) LendFile(key []byte, off, length int64) (*os.File, int64, error) {
	f, n, err := s.FSStore.LendFile(key, off, length)
	if err == nil {
		s.after(f, max(off, 0), n)
	}
	return f, n, err
}

// TestGetFileTruncatedAfterLend: a block file cut short between lend and
// send fails that call and closes the conn, and the next call, on a new
// conn, succeeds.
func TestGetFileTruncatedAfterLend(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		var armed atomic.Bool
		st := lendHook{FSStore: fileStore(t), after: func(f *os.File, off, n int64) {
			if armed.CompareAndSwap(true, false) {
				os.Truncate(f.Name(), off+n/2)
			}
		}}
		addr, dial := serveOn(t, tcp, st)
		pool := rpc.NewPool(elsewhere(dial))
		pool.SetCallTimeout(10 * time.Second) // a response left short shows as a timeout, not a hang
		t.Cleanup(pool.Close)
		c, ctx := NewClient(pool), context.Background()
		key, data := blob.BlockKey{Blob: 1, Nonce: 4}, pattern(500_000, 0)
		st.Put(key.String(), data)
		dst := make([]byte, len(data))
		if _, err := c.GetInto(ctx, addr, key, 0, dst); err != nil {
			t.Fatal(err) // dials
		}
		armed.Store(true)
		if _, err := c.GetInto(ctx, addr, key, 0, dst); !errors.Is(err, rpc.ErrConnBroken) {
			t.Fatalf("tcp=%v: get of a block truncated after lend = %v, want a broken conn", tcp, err)
		}
		st.Put(key.String(), data)
		clear(dst)
		if n, err := c.GetInto(ctx, addr, key, 0, dst); err != nil || n != len(data) || !bytes.Equal(dst, data) {
			t.Fatalf("tcp=%v: the get after = %d, %v", tcp, n, err)
		}
	}
}

// TestGetFileChangedAfterLend: a block deleted or overwritten between lend
// and send is served as it was when lent, the contract TestLends pins.
func TestGetFileChangedAfterLend(t *testing.T) {
	key, old := blob.BlockKey{Blob: 1, Nonce: 5}, pattern(200_000, 0)
	for _, tcp := range []bool{false, true} {
		for name, change := range map[string]func(st *store.FSStore){
			"deleted":     func(st *store.FSStore) { st.Delete(key.String()) },
			"overwritten": func(st *store.FSStore) { st.Put(key.String(), pattern(300_000, 9)) },
		} {
			fs := fileStore(t)
			st := lendHook{FSStore: fs, after: func(*os.File, int64, int64) { change(fs) }}
			addr, dial := serveOn(t, tcp, st)
			st.Put(key.String(), old)
			dst := make([]byte, len(old))
			if n, err := clientOf(t, dial).GetInto(context.Background(), addr, key, 0, dst); err != nil || n != len(old) || !bytes.Equal(dst, old) {
				t.Fatalf("tcp=%v: get of a block %s after lend = %d, %v; want its old bytes", tcp, name, n, err)
			}
		}
	}
}

// TestGetFileConcurrent: gets of different blocks from several goroutines
// share one conn, whose writer sends their file tails one frame at a
// time; each lands its own block's bytes.
func TestGetFileConcurrent(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		st := fileStore(t)
		addr, dial := serveOn(t, tcp, st)
		c := clientOf(t, dial)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			key, data := blob.BlockKey{Blob: 1, Nonce: 8, Seq: uint32(g)}, pattern(100_000+g, g)
			st.Put(key.String(), data)
			wg.Add(1)
			go func() {
				defer wg.Done()
				dst := make([]byte, len(data))
				for i := 0; i < 20; i++ {
					if n, err := c.GetInto(context.Background(), addr, key, 0, dst); err != nil || n != len(data) || !bytes.Equal(dst, data) {
						t.Errorf("tcp=%v: get %d of block %d = %d, %v", tcp, i, key.Seq, n, err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestGetFileTailCap: a get of more ranges than a response may hold files
// open is answered in full, and holds maxFileTails files at most.
func TestGetFileTailCap(t *testing.T) {
	st := fileStore(t)
	var keys []blob.BlockKey
	for i := 0; i < 5; i++ {
		keys = append(keys, blob.BlockKey{Blob: 1, Nonce: 6, Seq: uint32(i)})
		st.Put(keys[i].String(), pattern(10_000, i))
	}
	var rs []Range
	var req []byte
	for i := 0; i < 3*maxFileTails; i++ {
		r := Range{Key: keys[i%5], Off: int64(100 * i), Dst: marked(50 + i)}
		rs = append(rs, r)
		req = append(req, encodeRange(r.Key, r.Off, int64(len(r.Dst)))...)
	}
	before := openFiles(t)
	f, err := NewService(st).handleGetBlock(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if held := openFiles(t) - before; len(f.Files()) != maxFileTails || held > maxFileTails {
		t.Errorf("a get of %d ranges holds %d files open in %d file tails, want at most %d", len(rs), held, len(f.Files()), maxFileTails)
	}
	f.Release()
	for _, tcp := range []bool{false, true} {
		addr, dial := serveOn(t, tcp, st)
		if err := clientOf(t, dial).GetRanges(context.Background(), addr, rs); err != nil {
			t.Fatal(err)
		}
		for i, r := range rs {
			want := pattern(10_000, i%5)[r.Off:][:len(r.Dst)]
			if r.N != len(want) || !bytes.Equal(r.Dst, want) {
				t.Fatalf("tcp=%v: range %d = %d bytes, want %d of its block's", tcp, i, r.N, len(want))
			}
			clear(r.Dst)
		}
	}
}

// BenchmarkGetFile1M is the file:// read's per-hop budget over loopback
// TCP: one 1 MB block read into the caller's buffer.
//
// The bytes arm is a client on another host (elsewhere). The block goes
// from page cache to socket, so the server takes no payload-sized frame
// from the pool, where reading it into the frame took one (≈1 pool byte
// per payload byte); the gate fails above 0.01, or above 5 allocations
// per get: about 4 today and a quarter of headroom (9, the copy path's 8
// and their amortized share, until the gates were set to their readings).
//
// The named arm is a client on the provider's host, which reads the
// block file itself: no frame from the pool either, and no allocation
// (the gate allows 0.5, as the pool's misses may).
func BenchmarkGetFile1M(b *testing.B) {
	for _, arm := range []struct {
		name   string
		client func(testing.TB, rpc.Dialer) *Client
		allocs float64
	}{{"bytes", clientOf, 5}, {"named", localClient, 0.5}} {
		b.Run(arm.name, func(b *testing.B) { benchGetFile(b, arm.client, arm.allocs) })
	}
}

func benchGetFile(b *testing.B, client func(testing.TB, rpc.Dialer) *Client, budgetAllocs float64) {
	wire.PoisonReleased(false)
	defer wire.PoisonReleased(true)
	st := fileStore(b)
	addr, dial := serveOn(b, true, st)
	c, ctx := client(b, dial), context.Background()
	const size = 1 << 20
	key, dst := blob.BlockKey{Blob: 1, Nonce: 1}, make([]byte, size)
	st.Put(key.String(), bytes.Repeat([]byte{0x5A}, size))
	op := func() {
		if n, err := c.GetInto(ctx, addr, key, 0, dst); err != nil || n != size {
			b.Fatal(n, err)
		}
	}
	poolTaken := func() int64 { // bytes the 1 MB class handed out
		for _, cs := range wire.PoolStats() {
			if cs.Size == size {
				return (cs.Hits + cs.Misses) * size
			}
		}
		return 0
	}
	op() // dial, fill the free lists
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	taken := poolTaken()
	b.ReportAllocs()
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(b.N)
	perByte := float64(poolTaken()-taken) / float64(b.N) / size
	b.ReportMetric(allocs, "allocs/get")
	b.ReportMetric(perByte, "pool-B/payload-B")
	if b.N >= 20 && (allocs > budgetAllocs || perByte > 0.01) {
		b.Errorf("%.1f allocations and %.3f frame-pool bytes per payload byte for a 1 MB file:// get, want at most %v and 0.01",
			allocs, perByte, budgetAllocs)
	}
}
