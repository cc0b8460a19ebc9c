package rpc

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/wire"
)

// handlerGoroutines counts the goroutines running Server.handle: the
// handlers busy with a request and those parked for the next.
func handlerGoroutines() int {
	buf := make([]byte, 4<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "rpc.(*Server).handle(")
}

// eventually polls cond until it holds or five seconds have passed.
func eventually(cond func() bool) bool {
	for end := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			return false
		}
	}
	return true
}

// gateMux serves method 1, which reports on entered and answers once
// gate is closed, and method 2, an echo.
func gateMux(entered chan<- struct{}, gate <-chan struct{}) *Mux {
	mux := NewMux()
	mux.HandleFrame(1, "gated", func(_ context.Context, p []byte) (*wire.Buffer, error) {
		entered <- struct{}{}
		<-gate
		return frameOf(p), nil
	})
	mux.HandleFrame(2, "echo", func(_ context.Context, p []byte) (*wire.Buffer, error) { return frameOf(p), nil })
	return mux
}

// callAll makes n concurrent calls of method m on c and fails t on the
// first error.
func callAll(t *testing.T, c *Client, m uint16, n int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Call(context.Background(), m, []byte("x")); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRequestFindsAHandlerWhenAllAreBusy: with more requests blocked in
// their handlers than the server parks, one more request on the same
// connection is still answered at once. A request that finds no parked
// handler starts one; it never queues behind a busy one.
func TestRequestFindsAHandlerWhenAllAreBusy(t *testing.T) {
	const k = maxParked + 8
	entered, gate := make(chan struct{}, k), make(chan struct{})
	c := dialEcho(t, gateMux(entered, gate))
	callAll(t, c, 2, 16) // some handlers parked
	blocked := make(chan error, k)
	for i := 0; i < k; i++ {
		go func() {
			_, err := c.Call(context.Background(), 1, []byte("wait"))
			blocked <- err
		}()
	}
	for i := 0; i < k; i++ {
		<-entered
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 10; i++ {
		want := fmt.Sprintf("behind-%d", i)
		if got, err := c.Call(ctx, 2, []byte(want)); err != nil || string(got) != want {
			t.Fatalf("call behind %d blocked handlers = %q, %v", k, got, err)
		}
	}
	close(gate)
	for i := 0; i < k; i++ {
		if err := <-blocked; err != nil {
			t.Errorf("blocked call = %v", err)
		}
	}
}

// TestParkedHandlersAreCapped: after a burst of 256 requests handled at
// once, maxParked handler goroutines stay parked and the others exit.
func TestParkedHandlersAreCapped(t *testing.T) {
	const calls = 256
	var in atomic.Int32
	all := make(chan struct{})
	mux := NewMux()
	mux.HandleFrame(1, "wide", func(_ context.Context, p []byte) (*wire.Buffer, error) {
		if in.Add(1) == calls {
			close(all)
		}
		<-all // every request of the burst holds a handler at once
		return frameOf(p), nil
	})
	n, addr, srv := startServer(t, mux)
	conn, err := n.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	defer c.Close()
	callAll(t, c, 1, calls)
	if !eventually(func() bool { return srv.parked.Load() == maxParked && handlerGoroutines() == maxParked }) {
		t.Fatalf("after %d concurrent requests: %d handlers parked, %d handler goroutines; want %d of each",
			calls, srv.parked.Load(), handlerGoroutines(), maxParked)
	}
}

// TestCloseEndsParkedHandlers: Close returns only once every parked
// handler has exited, and a closed server leaves no goroutine behind.
func TestCloseEndsParkedHandlers(t *testing.T) {
	before := runtime.NumGoroutine()
	mux := NewMux()
	mux.HandleFrame(1, "echo", func(_ context.Context, p []byte) (*wire.Buffer, error) { return frameOf(p), nil })
	lis, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(mux)
	go srv.Serve(lis)
	conn, err := TCPDialer(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	callAll(t, c, 1, 32)
	if !eventually(func() bool { return srv.parked.Load() > 0 }) {
		t.Fatal("no handler parked after 32 requests")
	}
	c.Close()
	srv.Close()
	if n := handlerGoroutines(); n != 0 {
		t.Errorf("%d handler goroutines left once Close returned", n)
	}
	if !eventually(func() bool { return runtime.NumGoroutine() <= before }) {
		t.Errorf("%d goroutines after Close, %d before NewServer", runtime.NumGoroutine(), before)
	}
}

// TestSeverLeavesABlockedHandlerBehind: what a node's crash (node.Kill)
// relies on. Sever returns while a handler is blocked mid-request, the
// request's caller fails at once as from a dead peer, and no new
// connection is served. Close then drains: it returns only once the
// handler is released, whose response write fails harmlessly, and ends
// the parked handlers too.
func TestSeverLeavesABlockedHandlerBehind(t *testing.T) {
	entered, gate := make(chan struct{}, 1), make(chan struct{})
	n, addr, srv := startServer(t, gateMux(entered, gate))
	conn, err := n.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	defer c.Close()
	callAll(t, c, 2, 8) // some handlers parked
	blocked := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), 1, []byte("wait"))
		blocked <- err
	}()
	<-entered
	severed := make(chan struct{})
	go func() {
		srv.Sever()
		close(severed)
	}()
	select {
	case <-severed:
	case <-time.After(5 * time.Second):
		t.Fatal("Sever waited for a blocked handler")
	}
	select {
	case err := <-blocked:
		if !TransportFailure(err) {
			t.Errorf("call whose server was severed = %v, want a transport failure", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call on a severed server did not fail")
	}
	if conn, err := n.Dial(addr); err == nil {
		c2 := NewClient(conn)
		if _, err := c2.Call(context.Background(), 2, []byte("late")); err == nil {
			t.Error("a severed server answered a new connection")
		}
		c2.Close()
	}
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a handler was blocked")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return once the handler was released")
	}
	if n := handlerGoroutines(); n != 0 {
		t.Errorf("%d handler goroutines left once Close returned", n)
	}
}
