package namespace

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/fs"
	"blobseer/internal/rpc"
	"blobseer/internal/wire"
)

// The whole namespace suite runs with released buffers poisoned (see
// internal/rpc/ownership_test.go).
func TestMain(m *testing.M) {
	wire.PoisonReleased(true)
	os.Exit(m.Run())
}

// cutConn dies once, after the first request went out and before any
// response is read: the call in flight fails at the transport and has
// to be sent again on a new connection.
type cutConn struct {
	net.Conn
	once  sync.Once
	wrote chan struct{}
}

func (c *cutConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.once.Do(func() { close(c.wrote) })
	return n, err
}

func (c *cutConn) Read([]byte) (int, error) {
	<-c.wrote
	c.Conn.Close()
	return 0, errors.New("cut after the request was written")
}

// cutFirst wraps dial so that the first connection is a cutConn, and
// counts the connections made.
func cutFirst(dial rpc.Dialer) (rpc.Dialer, *atomic.Int32) {
	dials := new(atomic.Int32)
	return func(addr string) (net.Conn, error) {
		conn, err := dial(addr)
		if dials.Add(1) == 1 && err == nil {
			conn = &cutConn{Conn: conn, wrote: make(chan struct{})}
		}
		return conn, err
	}, dials
}

func TestFrameOwnership(t *testing.T) {
	// The blob creator is the seam a handler can be held at.
	var next atomic.Uint64
	var gate atomic.Pointer[chan struct{}]
	entered := make(chan struct{}, 1)
	st := NewState(func(context.Context, int64, int) (blob.ID, error) {
		if g := gate.Load(); g != nil {
			entered <- struct{}{}
			<-*g
		}
		return blob.ID(next.Add(1)), nil
	})
	n := rpc.NewInprocNetwork()
	lis, err := n.Listen("ns")
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(NewService(st).Mux())
	go srv.Serve(lis)
	defer srv.Close()
	ctx := context.Background()
	newClient := func(dial rpc.Dialer) *Client {
		pool := rpc.NewPool(dial)
		t.Cleanup(pool.Close)
		return NewClient(pool, "ns")
	}
	c := newClient(n.Dial)

	t.Run("results outlive their frames", func(t *testing.T) {
		for i := 0; i < 20; i++ {
			if _, err := c.CreateFile(ctx, fmt.Sprintf("/dir/file-%02d", i), 4096, 1, false); err != nil {
				t.Fatal(err)
			}
		}
		entries, err := c.List(ctx, "/dir")
		if err != nil || len(entries) != 20 {
			t.Fatalf("List = %d entries, %v", len(entries), err)
		}
		for i := 0; i < 200; i++ { // recycle every frame those results came in
			if _, err := c.StatEntry(ctx, "/dir/file-00"); err != nil {
				t.Fatal(err)
			}
		}
		for i, e := range entries {
			if want := fmt.Sprintf("file-%02d", i); e.Name != want || e.IsDir || e.Blob != blob.ID(i+1) {
				t.Fatalf("entry %d = %+v after its frame was recycled, want %s", i, e, want)
			}
		}
	})

	t.Run("coded error", func(t *testing.T) {
		for i := 0; i < 3; i++ {
			if _, err := c.GetFile(ctx, "/nowhere"); !errors.Is(err, fs.ErrNotFound) {
				t.Fatalf("GetFile of a missing path = %v", err)
			}
			if _, err := c.CreateFile(ctx, "/dir/file-03", 4096, 1, false); !errors.Is(err, fs.ErrExists) {
				t.Fatalf("second create = %v", err)
			}
		}
		if id, err := c.GetFile(ctx, "/dir/file-03"); err != nil || id != 4 {
			t.Fatalf("GetFile after error replies = %d, %v", id, err)
		}
	})

	t.Run("retry re-encodes", func(t *testing.T) {
		dial, dials := cutFirst(n.Dial)
		id, err := newClient(dial).GetFile(ctx, "/dir/file-07")
		if err != nil || id != 8 || dials.Load() != 2 {
			t.Fatalf("GetFile across a cut connection = %d, %v after %d dials, want 8 on the second", id, err, dials.Load())
		}
		dial, _ = cutFirst(n.Dial)
		if err := newClient(dial).Rename(ctx, "/dir/file-19", "/dir/renamed"); err != nil && !errors.Is(err, fs.ErrNotFound) {
			// (the first attempt may have renamed it before the cut)
			t.Fatalf("Rename across a cut connection = %v", err)
		}
		if id, err := c.GetFile(ctx, "/dir/renamed"); err != nil || id != 20 {
			t.Fatalf("renamed file = %d, %v", id, err)
		}
	})

	t.Run("abandoned call", func(t *testing.T) {
		g := make(chan struct{})
		gate.Store(&g)
		cctx, cancel := context.WithCancel(ctx)
		done := make(chan error, 1)
		go func() {
			_, err := c.CreateFile(cctx, "/slow", 4096, 1, false)
			done <- err
		}()
		<-entered
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("abandoned CreateFile = %v", err)
		}
		gate.Store(nil)
		close(g) // the late response is drained off the connection
		e, err := c.StatEntry(ctx, "/dir/file-05")
		if err != nil || e.Name != "file-05" || e.Blob != 6 {
			t.Fatalf("StatEntry after a drained response = %+v, %v", e, err)
		}
	})
}
