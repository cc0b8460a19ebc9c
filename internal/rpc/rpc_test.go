package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"blobseer/internal/wire"
)

// startServer wires a mux to a fresh inproc endpoint and returns a dialer.
func startServer(t *testing.T, mux *Mux) (*InprocNetwork, string, *Server) {
	t.Helper()
	n := NewInprocNetwork()
	lis, err := n.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(mux)
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	return n, "svc", srv
}

func TestCallRoundTrip(t *testing.T) {
	mux := NewMux()
	mux.Handle(1, func(ctx context.Context, p []byte) ([]byte, error) {
		return append([]byte("echo:"), p...), nil
	})
	n, addr, _ := startServer(t, mux)
	conn, err := n.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	defer c.Close()

	resp, err := c.Call(context.Background(), 1, []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "echo:hi" {
		t.Errorf("resp = %q", resp)
	}
}

func TestRemoteError(t *testing.T) {
	mux := NewMux()
	mux.Handle(2, func(ctx context.Context, p []byte) ([]byte, error) {
		return nil, CodedError(42, "nope")
	})
	n, addr, _ := startServer(t, mux)
	conn, _ := n.Dial(addr)
	c := NewClient(conn)
	defer c.Close()

	_, err := c.Call(context.Background(), 2, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if re.Code != 42 || re.Msg != "nope" {
		t.Errorf("remote error = %+v", re)
	}
	if CodeOf(err) != 42 {
		t.Errorf("CodeOf = %d", CodeOf(err))
	}
}

func TestUnknownMethod(t *testing.T) {
	n, addr, _ := startServer(t, NewMux())
	conn, _ := n.Dial(addr)
	c := NewClient(conn)
	defer c.Close()
	_, err := c.Call(context.Background(), 99, nil)
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != StatusError {
		t.Fatalf("err = %v", err)
	}
}

func TestConcurrentPipelinedCalls(t *testing.T) {
	mux := NewMux()
	mux.Handle(3, func(ctx context.Context, p []byte) ([]byte, error) { return p, nil })
	n, addr, _ := startServer(t, mux)
	conn, _ := n.Dial(addr)
	c := NewClient(conn)
	defer c.Close()

	const N = 64
	var wg sync.WaitGroup
	errs := make(chan error, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("payload-%d", i)
			resp, err := c.Call(context.Background(), 3, []byte(want))
			if err != nil {
				errs <- err
				return
			}
			if string(resp) != want {
				errs <- fmt.Errorf("mismatch: got %q want %q", resp, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestBlockingHandlerDoesNotStallOthers(t *testing.T) {
	release := make(chan struct{})
	mux := NewMux()
	mux.Handle(1, func(ctx context.Context, p []byte) ([]byte, error) { <-release; return []byte("slow"), nil })
	mux.Handle(2, func(ctx context.Context, p []byte) ([]byte, error) { return []byte("fast"), nil })
	n, addr, _ := startServer(t, mux)
	conn, _ := n.Dial(addr)
	c := NewClient(conn)
	defer c.Close()

	slowDone := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), 1, nil)
		slowDone <- err
	}()
	// The fast call must complete while the slow one is blocked.
	resp, err := c.Call(context.Background(), 2, nil)
	if err != nil || string(resp) != "fast" {
		t.Fatalf("fast call failed: %v %q", err, resp)
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow call: %v", err)
	}
}

// TestInlineMethodAnswersInRequestOrder: an inline method is answered on
// the connection's goroutine, while a spawned handler on the same
// connection is blocked, and its responses leave in request order
// though each later request takes its handler less time (spawned, they
// would leave last first).
func TestInlineMethodAnswersInRequestOrder(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	mux := NewMux()
	mux.Handle(1, func(context.Context, []byte) ([]byte, error) {
		close(entered)
		<-release
		return []byte("slow"), nil
	})
	mux.HandleInline(2, "sleep", func(_ context.Context, p []byte) (*wire.Buffer, error) {
		time.Sleep(time.Duration(p[0]) * time.Millisecond)
		return frameOf(p), nil
	})
	n, addr, _ := startServer(t, mux)
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	t.Cleanup(free) // before the server's Close, which waits for the handler
	conn, err := n.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const k = 6
	sent := make(chan error, 1)
	go func() {
		if _, err := conn.Write(rawFrame(100, 1, 0, nil)); err != nil {
			sent <- err
			return
		}
		<-entered
		var reqs []byte
		for i := 0; i < k; i++ {
			reqs = append(reqs, rawFrame(uint64(i+1), 2, 0, []byte{byte(k - i)})...)
		}
		_, err := conn.Write(reqs)
		sent <- err
	}()
	for i := 0; i < k; i++ {
		frame, err := wire.ReadFrame(conn, 0)
		if err != nil {
			t.Fatal(err)
		}
		if id := binary.BigEndian.Uint64(frame); id != uint64(i+1) || frame[hdrLen] != byte(k-i) {
			t.Fatalf("response %d answers request %d (body %v), want request %d", i, id, frame[hdrLen:], i+1)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	free()
	frame, err := wire.ReadFrame(conn, 0)
	if err != nil || binary.BigEndian.Uint64(frame) != 100 || string(frame[hdrLen:]) != "slow" {
		t.Fatalf("the blocked call's response = %q, %v", frame, err)
	}
}

func TestCallContextCancel(t *testing.T) {
	mux := NewMux()
	block := make(chan struct{})
	defer close(block)
	mux.Handle(1, func(ctx context.Context, p []byte) ([]byte, error) { <-block; return nil, nil })
	n, addr, _ := startServer(t, mux)
	conn, _ := n.Dial(addr)
	c := NewClient(conn)
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := c.Call(ctx, 1, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

func TestServerCloseFailsInflight(t *testing.T) {
	mux := NewMux()
	started := make(chan struct{})
	block := make(chan struct{})
	mux.Handle(1, func(ctx context.Context, p []byte) ([]byte, error) { close(started); <-block; return nil, nil })
	n, addr, srv := startServer(t, mux)
	conn, _ := n.Dial(addr)
	c := NewClient(conn)
	defer c.Close()

	done := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), 1, nil)
		done <- err
	}()
	<-started
	close(block) // let the handler finish so Close's wait returns
	srv.Close()
	err := <-done
	// The call either completed before the teardown or failed with a
	// transport error; it must not hang or return a silent nil payload.
	if err != nil && !errors.Is(err, ErrConnBroken) {
		t.Logf("in-flight call ended with: %v", err)
	}
}

func TestConnBrokenSurfacesToPendingCalls(t *testing.T) {
	mux := NewMux()
	block := make(chan struct{})
	defer close(block)
	mux.Handle(1, func(ctx context.Context, p []byte) ([]byte, error) { <-block; return nil, nil })
	n, addr, _ := startServer(t, mux)
	conn, _ := n.Dial(addr)
	c := NewClient(conn)

	done := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), 1, nil)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrConnBroken) {
			t.Fatalf("err = %v, want ErrConnBroken", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call never failed after close")
	}
}

func TestInprocNetworkLifecycle(t *testing.T) {
	n := NewInprocNetwork()
	if _, err := n.Dial("nobody"); err == nil {
		t.Error("dial to unknown address succeeded")
	}
	lis, err := n.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("a"); err == nil {
		t.Error("duplicate listen succeeded")
	}
	if lis.Addr().Network() != "inproc" || lis.Addr().String() != "a" {
		t.Error("addr wrong")
	}
	lis.Close()
	if _, err := n.Dial("a"); err == nil {
		t.Error("dial after close succeeded")
	}
	// Address is reusable after close.
	if _, err := n.Listen("a"); err != nil {
		t.Errorf("relisten failed: %v", err)
	}
}

func TestPoolReusesAndRedials(t *testing.T) {
	mux := NewMux()
	mux.Handle(1, func(ctx context.Context, p []byte) ([]byte, error) { return []byte("ok"), nil })
	n, addr, _ := startServer(t, mux)
	pool := NewPool(n.Dial)
	defer pool.Close()

	c1, err := pool.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := pool.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("pool did not reuse client")
	}
	// Break the connection; the pool must hand out a fresh client.
	c1.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		c3, err := pool.Get(addr)
		if err != nil {
			t.Fatal(err)
		}
		if c3 != c1 {
			if _, err := c3.Call(context.Background(), 1, nil); err != nil {
				t.Fatalf("fresh client call: %v", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pool kept returning the broken client")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestOverTCP(t *testing.T) {
	mux := NewMux()
	mux.Handle(7, func(ctx context.Context, p []byte) ([]byte, error) { return append(p, '!'), nil })
	lis, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	srv := NewServer(mux)
	go srv.Serve(lis)
	defer srv.Close()

	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	defer c.Close()
	resp, err := c.Call(context.Background(), 7, []byte("tcp"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "tcp!" {
		t.Errorf("resp = %q", resp)
	}
}
