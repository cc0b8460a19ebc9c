package vmanager

import (
	"context"
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/rpc"
	"blobseer/internal/wire"
)

// The whole vmanager suite runs with released buffers poisoned: every
// request and response rides a recycled frame now, so a decoded value
// that still points into one reads as 0xDB and a frame released twice
// panics.
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
	n := rpc.NewInprocNetwork()
	svc := NewService(NewState(nil))
	lis, err := n.Listen("vmanager")
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(svc.Mux())
	go srv.Serve(lis)
	defer srv.Close()
	defer svc.State().ReleaseWaiters()
	ctx := context.Background()
	m, err := svc.State().CreateBlob(B, 1)
	if err != nil {
		t.Fatal(err)
	}
	newClient := func(dial rpc.Dialer) *Client {
		pool := rpc.NewPool(dial)
		t.Cleanup(pool.Close)
		return NewClient(pool, "vmanager")
	}

	t.Run("results outlive their frames", func(t *testing.T) {
		c := newClient(n.Dial)
		var kept []Assignment
		for i := 1; i <= 40; i++ {
			a, err := c.AssignVersion(ctx, m.ID, blob.KindAppend, 0, B, uint64(i), 0)
			if err != nil {
				t.Fatal(err)
			}
			kept = append(kept, a)
		}
		// The same 40 writes, published on a blob of their own (m's stay
		// in flight for the subtests below).
		twin, err := svc.State().CreateBlob(B, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 40; i++ {
			a, err := svc.State().AssignVersion(twin.ID, blob.KindAppend, 0, B, uint64(i), 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := svc.State().Commit(twin.ID, a.Version); err != nil {
				t.Fatal(err)
			}
		}
		hist, _, err := readHistory(ctx, c, twin.ID, 0)
		if err != nil || len(hist) != 40 {
			t.Fatalf("history = %d descriptors, %v", len(hist), err)
		}
		for i := 0; i < 200; i++ { // recycle every frame those results came in
			if _, err := c.Latest(ctx, m.ID); err != nil {
				t.Fatal(err)
			}
		}
		for i, a := range kept {
			v := blob.Version(i + 1)
			if a.Version != v || len(a.Descs) != i+1 || a.Descs[i].Nonce != uint64(i+1) || a.Descs[i].SizeAfter != int64(i+1)*B {
				t.Fatalf("assignment %d changed after its frame was recycled: %+v", v, a)
			}
			if hist[i] != a.Descs[i] {
				t.Fatalf("history[%d] = %+v, assignment said %+v", i, hist[i], a.Descs[i])
			}
		}
	})

	t.Run("coded error", func(t *testing.T) {
		c := newClient(n.Dial)
		for i := 0; i < 3; i++ {
			if _, err := c.Latest(ctx, 999); !errors.Is(err, ErrUnknownBlob) {
				t.Fatalf("Latest of an unknown blob = %v", err)
			}
			if err := c.Commit(ctx, m.ID, 9999); !errors.Is(err, ErrBadVersion) {
				t.Fatalf("Commit of an unassigned version = %v", err)
			}
		}
		if h, err := c.Latest(ctx, m.ID); err != nil || h.Meta != m || h.Published != 0 {
			t.Fatalf("head after error replies = %+v, %v", h, err)
		}
	})

	t.Run("retry re-encodes", func(t *testing.T) {
		// The first attempt's frame is released (poisoned) when it is
		// written; a retry that sent it again would ask about blob
		// 0xDBDB... and be told it does not exist.
		dial, dials := cutFirst(n.Dial)
		c := newClient(dial)
		if err := c.Commit(ctx, m.ID, 1); err != nil || dials.Load() != 2 {
			t.Fatalf("Commit across a cut connection = %v after %d dials, want success on the second", err, dials.Load())
		}
		if h, err := c.Latest(ctx, m.ID); err != nil || h.Published != 1 || h.Size != B {
			t.Fatalf("Latest = %+v, %v; want 1/%d", h, err, B)
		}
		dial, _ = cutFirst(n.Dial)
		c = newClient(dial)
		if ds, _, err := readHistory(ctx, c, m.ID, 0); err != nil || len(ds) != 1 || ds[0].Nonce != 1 {
			t.Fatalf("history across a cut connection = %+v, %v", ds, err)
		}
	})

	t.Run("abandoned call", func(t *testing.T) {
		c := newClient(n.Dial)
		cctx, cancel := context.WithCancel(ctx)
		done := make(chan error, 1)
		go func() {
			_, err := c.WaitPublished(cctx, m.ID, 0, 2, 0, nil)
			done <- err
		}()
		for svc.State().PendingWaiters(m.ID) == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("abandoned wait = %v", err)
		}
		// Publishing 2 answers the abandoned wait; its response is
		// drained off the same connection these calls then use.
		if err := c.Commit(ctx, m.ID, 2); err != nil {
			t.Fatal(err)
		}
		if h, err := c.Latest(ctx, m.ID); err != nil || h.Published != 2 || h.Size != 2*B {
			t.Fatalf("Latest after a drained response = %+v, %v", h, err)
		}
	})
}
