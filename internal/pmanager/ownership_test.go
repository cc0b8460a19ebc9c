package pmanager

import (
	"context"
	"errors"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"blobseer/internal/placement"
	"blobseer/internal/rpc"
	"blobseer/internal/wire"
)

// The whole pmanager suite runs with released buffers poisoned (see
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

// gated is a placement strategy that waits at the gate when one is set.
type gated struct {
	placement.Strategy
	mu      sync.Mutex
	gate    chan struct{} // nil: open
	entered chan struct{}
}

func (g *gated) Pick(dst []*placement.Node, n, replicas int, host string, nodes []*placement.Node) ([]*placement.Node, error) {
	g.mu.Lock()
	gate := g.gate
	g.mu.Unlock()
	if gate != nil {
		g.entered <- struct{}{}
		<-gate
	}
	return g.Strategy.Pick(dst, n, replicas, host, nodes)
}

func TestFrameOwnership(t *testing.T) {
	n := rpc.NewInprocNetwork()
	strategy := &gated{Strategy: placement.NewRoundRobin(), entered: make(chan struct{}, 1)}
	svc := NewService(NewState(strategy))
	lis, err := n.Listen("pmanager")
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(svc.Mux())
	go srv.Serve(lis)
	defer srv.Close()
	ctx := context.Background()
	newClient := func(dial rpc.Dialer) *Client {
		pool := rpc.NewPool(dial)
		t.Cleanup(pool.Close)
		return NewClient(pool, "pmanager")
	}
	c := newClient(n.Dial)
	for _, p := range []string{"provider-a", "provider-b", "provider-c"} {
		if err := c.Register(ctx, p, "host-of-"+p); err != nil {
			t.Fatal(err)
		}
	}
	checkTargets := func(t *testing.T, targets Placement, blocks, replicas int) {
		t.Helper()
		if targets.Replicas != replicas || len(targets.Addrs) != blocks*replicas {
			t.Fatalf("%d addresses in sets of %d for %d blocks of %d replicas", len(targets.Addrs), targets.Replicas, blocks, replicas)
		}
		for i := 0; i < blocks; i++ {
			for _, addr := range targets.Block(i) {
				if addr != "provider-a" && addr != "provider-b" && addr != "provider-c" {
					t.Fatalf("target %q is no provider: the result aliases a recycled frame", addr)
				}
			}
		}
	}

	t.Run("results outlive their frames", func(t *testing.T) {
		targets, err := c.Allocate(ctx, 8, 2, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		infos, err := c.List(ctx)
		if err != nil || len(infos) != 3 {
			t.Fatalf("List = %v, %v", infos, err)
		}
		for i := 0; i < 200; i++ { // recycle every frame those results came in
			if _, err := c.Allocate(ctx, 1, 1, "host-of-provider-a", nil); err != nil {
				t.Fatal(err)
			}
		}
		checkTargets(t, targets, 8, 2)
		for _, in := range infos {
			if in.Host != "host-of-"+in.Addr || !in.Alive {
				t.Fatalf("listing changed after its frame was recycled: %+v", in)
			}
		}
	})

	t.Run("coded error", func(t *testing.T) {
		var errs []error
		for i := 0; i < 3; i++ {
			_, err := c.Allocate(ctx, 1, 7, "", nil)
			errs = append(errs, err)
		}
		for _, err := range errs { // the message was copied out of its frame
			var re *rpc.RemoteError
			if !errors.As(err, &re) || !strings.Contains(re.Msg, "replication 7 exceeds 3 alive providers") {
				t.Fatalf("Allocate of 7 replicas on 3 providers = %v", err)
			}
		}
		targets, err := c.Allocate(ctx, 2, 3, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		checkTargets(t, targets, 2, 3)
	})

	t.Run("retry re-encodes", func(t *testing.T) {
		dial, dials := cutFirst(n.Dial)
		targets, err := newClient(dial).Allocate(ctx, 5, 2, "host-of-provider-b", nil)
		if err != nil || dials.Load() != 2 {
			t.Fatalf("Allocate across a cut connection = %v after %d dials, want success on the second", err, dials.Load())
		}
		checkTargets(t, targets, 5, 2)
	})

	t.Run("abandoned call", func(t *testing.T) {
		gate := make(chan struct{})
		strategy.mu.Lock()
		strategy.gate = gate
		strategy.mu.Unlock()
		cctx, cancel := context.WithCancel(ctx)
		done := make(chan error, 1)
		go func() {
			_, err := c.Allocate(cctx, 1, 1, "", nil)
			done <- err
		}()
		<-strategy.entered
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("abandoned Allocate = %v", err)
		}
		strategy.mu.Lock()
		strategy.gate = nil
		strategy.mu.Unlock()
		close(gate) // the late response is drained off the connection
		targets, err := c.Allocate(ctx, 3, 1, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		checkTargets(t, targets, 3, 1)
	})
}
