package core_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"blobseer/internal/cluster"
	"blobseer/internal/core"
	"blobseer/internal/rpc"
	"blobseer/internal/wire"
)

// slowConn hands what it reads over in pieces of at most 2 KB, each
// after a pause, so that a response lands over milliseconds.
type slowConn struct{ net.Conn }

func (c slowConn) Read(p []byte) (int, error) {
	time.Sleep(20 * time.Microsecond)
	return c.Conn.Read(p[:min(len(p), 2<<10)])
}

// spread writes blocks blocks of size block to a fresh blob of a
// 4-provider loopback TCP deployment and returns the deployment, the
// data and the blob's first block offset at which span blocks in a row
// have span different providers.
func spread(t *testing.T, block int64, blocks, span int) (*cluster.BlobSeer, *core.Blob, []byte, int64) {
	t.Helper()
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 4,
		MetaProviders: 2,
		BlockSize:     block,
		UseTCP:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	ctx := context.Background()
	bh, err := cl.NewClient("").CreateBlob(ctx, block, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := stamped(blocks * int(block))
	if _, err := bh.Write(ctx, 0, data); err != nil {
		t.Fatal(err)
	}
	s, err := bh.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+span <= blocks; i++ {
		locs, err := s.Locations(ctx, int64(i)*block, int64(span)*block)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, l := range locs {
			seen[l.Providers[0]] = true
		}
		if len(seen) == span {
			return cl, bh, data, int64(i) * block
		}
	}
	t.Fatalf("no %d blocks in a row of %d sit on %d providers", span, blocks, span)
	return nil, nil, nil, 0
}

// TestCanceledReadReturnsOnceNoCallWritesDst cancels reads over four
// providers while their responses are landing, at a spread of moments.
// Whatever each returns, it returns only once none of the calls it
// started can write into its buffer: the buffer is overwritten at once
// (a landing still running is a race under -race), then read again
// through the same connections, which answer in order, and must still
// hold what was written over it.
func TestCanceledReadReturnsOnceNoCallWritesDst(t *testing.T) {
	wire.PoisonReleased(true)
	t.Cleanup(func() { wire.PoisonReleased(false) })
	const block, blocks = 64 << 10, 8
	cl, bh, data, _ := spread(t, block, blocks, 4)
	pool := rpc.NewPool(func(addr string) (net.Conn, error) {
		c, err := rpc.TCPDialer(addr)
		if err != nil {
			return nil, err
		}
		return slowConn{c}, nil
	})
	t.Cleanup(pool.Close)
	rc := core.NewClient(core.Config{Pool: pool, VMAddrs: cl.VMAddrs, PMAddr: cl.PMAddr, MetaStore: cl.MetaStore})
	ctx := context.Background()
	rb, err := rc.OpenBlob(ctx, bh.ID())
	if err != nil {
		t.Fatal(err)
	}
	s, err := rb.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	buf, check := make([]byte, len(data)), make([]byte, len(data))
	canceled := 0
	for i := 0; i < 24; i++ {
		rctx, cancel := context.WithCancel(ctx)
		timer := time.AfterFunc(time.Duration(i)*250*time.Microsecond, cancel)
		_, err := s.ReadAtContext(rctx, buf, 0)
		for j := range buf {
			buf[j] = 0x5a
		}
		timer.Stop()
		cancel()
		switch {
		case errors.Is(err, context.Canceled):
			canceled++
		case err != nil && err != io.EOF:
			t.Fatalf("read %d: %v", i, err)
		}
		if _, err := s.ReadAtContext(ctx, check, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if !bytes.Equal(check, data) {
			t.Fatalf("read %d: the read behind it got other bytes", i)
		}
		if k := bytes.IndexFunc(buf, func(r rune) bool { return r != 0x5a }); k >= 0 {
			t.Fatalf("read %d (err %v): byte %d of its buffer was written after it returned", i, err, k)
		}
	}
	t.Logf("%d of 24 reads canceled", canceled)
	if canceled == 0 {
		t.Fatal("no read was canceled: the test cancels none in flight")
	}
}

// TestWarmMultiProviderReadAllocations pins what a warm 256 KB ReadAt
// across three providers allocates, client and daemons together, over
// loopback TCP: the reader sends every provider's call from its own
// goroutine, and a mem:// provider answers on its connection's
// goroutine, so the read starts no goroutine at either end, and each
// provider names its blocks by their keys' bytes. It read 3 while the
// providers built each key's string, and 8 while the reader ran a
// goroutine per extra provider and each request one at the provider.
func TestWarmMultiProviderReadAllocations(t *testing.T) {
	const block = 128 << 10
	_, bh, data, off := spread(t, block, 8, 3)
	ctx := context.Background()
	s, err := bh.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	off += block / 2
	buf := make([]byte, 2*block)
	read := func() {
		if _, err := s.ReadAtContext(ctx, buf, off); err != nil {
			t.Fatal(err)
		}
	}
	for range 16 { // connections, frames and free lists warm
		read()
	}
	if !bytes.Equal(buf, data[off:off+2*block]) {
		t.Fatal("the read got other bytes")
	}
	n := testing.AllocsPerRun(200, read)
	t.Logf("%v allocations per warm 256 KB read across 3 providers", n)
	if n > 0 {
		t.Errorf("a warm 256 KB read across 3 providers allocates %v times, want none", n)
	}
}
