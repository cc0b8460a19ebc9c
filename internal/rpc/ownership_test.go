package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/wire"
)

// The whole rpc suite runs with released buffers poisoned: a response,
// payload or result that outlives the buffer it sits in reads as 0xDB,
// and a buffer released twice panics.
func TestMain(m *testing.M) {
	wire.PoisonReleased(true)
	os.Exit(m.Run())
}

// released reports whether f was released. Poisoned, a released frame is
// retired, never handed out again, and releasing it again panics; one
// that was not is released here.
func released(f *wire.Buffer) (yes bool) {
	defer func() { yes = recover() != nil }()
	f.Release()
	return false
}

func dialEcho(t *testing.T, mux *Mux) *Client {
	t.Helper()
	n, addr, _ := startServer(t, mux)
	conn, err := n.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	t.Cleanup(func() { c.Close() })
	return c
}

// TestHandlerMayReturnItsRequest: the echo handler's response aliases
// the recycled request buffer; it must be on the wire before that
// buffer is released.
func TestHandlerMayReturnItsRequest(t *testing.T) {
	mux := NewMux()
	mux.Handle(1, func(_ context.Context, p []byte) ([]byte, error) { return p[1:], nil })
	c := dialEcho(t, mux)
	for _, size := range []int{2, 64, 70_000, 1 << 20} {
		want := bytes.Repeat([]byte{0xA5}, size)
		got, err := c.Call(context.Background(), 1, want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[1:]) {
			t.Fatalf("echo of %d bytes came back different (first byte %#x)", size, got[0])
		}
	}
}

// TestLateResponseIsDrained: a response that arrives after its Call
// gave up on ctx is read off the connection and its buffer released;
// the connection keeps serving later calls.
func TestLateResponseIsDrained(t *testing.T) {
	release := make(chan struct{})
	mux := NewMux()
	mux.Handle(1, func(_ context.Context, p []byte) ([]byte, error) {
		<-release
		return bytes.Repeat([]byte{1}, 100_000), nil
	})
	mux.Handle(2, func(_ context.Context, p []byte) ([]byte, error) { return p, nil })
	c := dialEcho(t, mux)

	for _, recycled := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := c.start(ctx, 1, frameOf(nil), recycled, nil).Wait()
			done <- err
		}()
		time.Sleep(10 * time.Millisecond) // let the request reach the handler
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("abandoned call: err = %v, want context.Canceled", err)
		}
		release <- struct{}{}
		got, err := c.Call(context.Background(), 2, []byte("still here"))
		if err != nil || string(got) != "still here" {
			t.Fatalf("call after a drained response = %q, %v", got, err)
		}
	}
}

// TestCallResultsStayIntact: Call's result belongs to the caller for
// ever (DHT values live in the node cache), however many frames the
// client recycles afterwards.
func TestCallResultsStayIntact(t *testing.T) {
	mux := NewMux()
	mux.Handle(1, func(_ context.Context, p []byte) ([]byte, error) { return p, nil })
	c := dialEcho(t, mux)
	ctx := context.Background()
	var kept [][]byte
	for i := 0; i < 8; i++ {
		got, err := c.Call(ctx, 1, []byte(fmt.Sprintf("value-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, got)
	}
	for i := 0; i < 1000; i++ {
		resp, err := c.CallFrame(ctx, 1, frameOf(bytes.Repeat([]byte{byte(i)}, 300)))
		if err != nil {
			t.Fatal(err)
		}
		wire.PutBuf(resp)
	}
	for i, got := range kept {
		if want := fmt.Sprintf("value-%d", i); string(got) != want {
			t.Errorf("result %d = %q after 1000 further calls, want %q", i, got, want)
		}
	}
}

// cutConn fails its first Write after passing half of it on.
type cutConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *cutConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	n, _ := c.Conn.Write(p[:len(p)/2])
	return n, errors.New("cut mid-frame")
}

// TestFrameWriteFailsMidway: the frame is released exactly once (the
// poison check panics on a second release) and the connection closed.
func TestFrameWriteFailsMidway(t *testing.T) {
	cli, srv := net.Pipe()
	defer srv.Close()
	go func() { // swallow the half frame
		buf := make([]byte, 1<<16)
		for {
			if _, err := srv.Read(buf); err != nil {
				return
			}
		}
	}()
	cc := &cutConn{Conn: cli}
	c := NewClient(cc)
	defer c.Close()
	_, err := c.CallFrame(context.Background(), 1, frameOf(bytes.Repeat([]byte{7}, 5000)))
	if err == nil || cc.writes.Load() != 1 {
		t.Fatalf("err = %v after %d writes, want a send error after one", err, cc.writes.Load())
	}
	if _, err := cli.Write([]byte{0}); err == nil {
		t.Error("connection still open after a partial frame")
	}
	if _, err := c.Call(context.Background(), 1, nil); err == nil {
		t.Error("call on a client whose frame write failed should fail")
	}
}

// TestBlockedHandlerDelaysNobody: a request whose handler blocks (a
// publication wait, a WAL sync, a chain forward) does not hold up the
// requests behind it on the same connection.
func TestBlockedHandlerDelaysNobody(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 4)
	mux := NewMux()
	mux.Handle(1, func(_ context.Context, p []byte) ([]byte, error) {
		entered <- struct{}{}
		<-release
		return p, nil
	})
	mux.Handle(2, func(_ context.Context, p []byte) ([]byte, error) { return p, nil })
	c := dialEcho(t, mux)
	ctx := context.Background()
	blocked := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			_, err := c.Call(ctx, 1, []byte("wait"))
			blocked <- err
		}()
		<-entered
	}
	for i := 0; i < 100; i++ {
		want := fmt.Sprintf("behind-%d", i)
		if got, err := c.Call(ctx, 2, []byte(want)); err != nil || string(got) != want {
			t.Fatalf("call behind four blocked handlers = %q, %v", got, err)
		}
	}
	close(release)
	for i := 0; i < 4; i++ {
		if err := <-blocked; err != nil {
			t.Errorf("blocked call = %v", err)
		}
	}
}

// TestAbandonedCallRecordIsReused: a call that gave up hands its record
// (channel, timer) to the next call at once; the answer to the first,
// arriving later, must reach neither that call nor any after it.
func TestAbandonedCallRecordIsReused(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	mux := NewMux()
	mux.Handle(1, func(_ context.Context, p []byte) ([]byte, error) {
		entered <- struct{}{}
		<-release
		return []byte("late answer"), nil
	})
	mux.Handle(2, func(_ context.Context, p []byte) ([]byte, error) { return p, nil })
	c := dialEcho(t, mux)
	c.SetIOTimeout(time.Minute) // calls arm, stop and re-arm the record's timer
	for round := 0; round < 50; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := c.CallFrame(ctx, 1, frameOf(nil))
			done <- err
		}()
		<-entered
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("abandoned call = %v", err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() { // one of these reuses the abandoned record
				defer wg.Done()
				want := fmt.Sprintf("round-%d-call-%d", round, i)
				got, err := c.CallFrame(context.Background(), 2, frameOf([]byte(want)))
				if err != nil || string(got) != want {
					t.Errorf("call on a reused record = %q, %v; want %q", got, err, want)
				}
				wire.PutBuf(got)
			}()
			if i == 1 {
				release <- struct{}{} // the late answer lands among them
			}
		}
		wg.Wait()
	}
	c.mu.Lock()
	free, pending := len(c.free), len(c.pending)
	c.mu.Unlock()
	if pending != 0 || free == 0 || free > 5 {
		t.Errorf("%d calls pending and %d records parked after 250 calls, want 0 and at most 5", pending, free)
	}
}

// TestPoolCall: the request is encoded again for every attempt, the
// response is decoded before it is recycled, and a response that does
// not decode fails the call without another attempt.
func TestPoolCall(t *testing.T) {
	mux := NewMux()
	mux.HandleFrame(1, "echo", func(_ context.Context, p []byte) (*wire.Buffer, error) {
		f := NewFrame(len(p))
		f.String(string(p))
		return f, nil
	})
	mux.HandleFrame(2, "nothing", func(context.Context, []byte) (*wire.Buffer, error) { return nil, nil })
	mux.Handle(3, func(context.Context, []byte) ([]byte, error) { return nil, CodedError(77, "refused") })
	n, addr, _ := startServer(t, mux)
	var dials atomic.Int32
	pool := NewPool(func(a string) (net.Conn, error) {
		conn, err := n.Dial(a)
		if dials.Add(1) == 1 && err == nil {
			conn = &cutConn{Conn: conn} // the first attempt dies mid-frame
		}
		return conn, err
	})
	defer pool.Close()
	ctx := context.Background()
	b := Backoff{Attempts: 3, Base: time.Millisecond}

	var encoded int
	var got string
	err := pool.Call(ctx, b, addr, 1, 16, func(f *wire.Buffer) {
		encoded++
		f.Bytes32([]byte("payload"))
	}, func(p []byte) error {
		r := wire.NewReader(p)
		got = string(r.Bytes32()[4:]) // the echoed Bytes32, as a string
		return r.Err()
	})
	if err != nil || got != "payload" || encoded != 2 || dials.Load() != 2 {
		t.Fatalf("Call = %q, %v after %d encodings and %d dials; want the payload from the second of each", got, err, encoded, dials.Load())
	}
	for i := 0; i < 100; i++ { // recycle the frame got was decoded from
		if err := pool.Call(ctx, b, addr, 2, 0, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got != "payload" {
		t.Errorf("decoded value changed to %q", got)
	}

	encoded = 0
	errDecode := errors.New("does not decode")
	err = pool.Call(ctx, b, addr, 2, 0, func(*wire.Buffer) { encoded++ }, func(p []byte) error {
		if len(p) != 0 {
			t.Errorf("empty response arrived as %d bytes", len(p))
		}
		return errDecode
	})
	if !errors.Is(err, errDecode) || encoded != 1 {
		t.Errorf("undecodable response: err = %v after %d attempts, want the decode error after 1", err, encoded)
	}
	if err := pool.Call(ctx, b, addr, 3, 0, nil, func([]byte) error { t.Error("decoded an error reply"); return nil }); CodeOf(err) != 77 {
		t.Errorf("coded error = %v", err)
	}
}

// TestCallAllocations pins what a small round trip allocates on both
// sides together, now that calls reuse their record, channel and timer
// (8 before that), frames their wire.Buffer (2 more before that) and the
// server its handler goroutines (1 more before that): nothing over TCP,
// and what net.Pipe allocates for its two writes — and that sending the
// payload by reference, as a tail in both directions, with or without a
// vectored write, and receiving it into a destination, allocates nothing
// on top.
func TestCallAllocations(t *testing.T) {
	wire.PoisonReleased(false) // the poison bookkeeping allocates
	defer wire.PoisonReleased(true)
	payload := bytes.Repeat([]byte{3}, 64)
	mux := NewMux()
	mux.HandleFrame(1, "echo", func(_ context.Context, p []byte) (*wire.Buffer, error) { return frameOf(p), nil })
	mux.HandleFrame(2, "into", func(_ context.Context, p []byte) (*wire.Buffer, error) {
		f := NewFrame(4)
		f.Tail32(payload)
		return f, nil
	})
	ctx := context.Background()
	dst := make([]byte, len(payload))
	for _, tcp := range []bool{false, true} {
		cli, srv := connPair(t, tcp)
		s := NewServer(mux)
		s.wg.Add(1)
		go s.serveConn(srv)
		c := NewClient(cli)
		c.SetIOTimeout(time.Minute)
		copied := testing.AllocsPerRun(500, func() {
			resp, err := c.CallFrame(ctx, 1, frameOf(payload))
			if err != nil {
				t.Fatal(err)
			}
			wire.PutBuf(resp)
		})
		budget := 2.0
		if tcp {
			budget = 0
		}
		if copied > budget {
			t.Errorf("tcp=%v: %.1f allocations per 64 B round trip, want at most %.0f", tcp, copied, budget)
		}
		tailed := testing.AllocsPerRun(500, func() {
			f := NewFrame(4)
			f.Tail32(payload)
			resp, err := c.StartInto(ctx, 2, f, dst).Wait()
			if err != nil || !bytes.Equal(dst, payload) {
				t.Fatal(err)
			}
			wire.PutBuf(resp)
		})
		if tailed > copied {
			t.Errorf("tcp=%v: %.1f allocations per round trip by reference, %.1f copied: want none extra", tcp, tailed, copied)
		}
		c.Close()
		s.Close()
	}
}

// TestWarmCallFrameAllocatesNothing: a warm CallFrame round trip over
// loopback TCP costs the whole process, client and server, no
// allocation. The request goes to a parked handler goroutine (1
// allocation while each request started a goroutine of its own), and the
// request and response frames are recycled with their bytes (3 when each
// frame's wire.Buffer was new).
func TestWarmCallFrameAllocatesNothing(t *testing.T) {
	wire.PoisonReleased(false) // the poison bookkeeping allocates
	defer wire.PoisonReleased(true)
	mux := NewMux()
	mux.HandleFrame(1, "echo", func(_ context.Context, p []byte) (*wire.Buffer, error) { return frameOf(p), nil })
	lis, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(mux)
	go srv.Serve(lis)
	defer srv.Close()
	conn, err := TCPDialer(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	defer c.Close()
	c.SetIOTimeout(time.Minute)
	payload := bytes.Repeat([]byte{5}, 64)
	ctx := context.Background()
	roundTrip := func() {
		resp, err := c.CallFrame(ctx, 1, frameOf(payload))
		if err != nil || !bytes.Equal(resp, payload) {
			t.Fatalf("echo = %q, %v", resp, err)
		}
		wire.PutBuf(resp)
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(1000, roundTrip); allocs > 0 {
		t.Errorf("%.2f allocations per warm 64 B round trip, want none", allocs)
	}
}

// countConn counts Write calls.
type countConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// benchEcho measures Call round trips over loopback TCP through a
// wrapped net.Conn (where net.Buffers would degrade to one Write per
// slice) and reports the client's conn writes per frame. With inline,
// the echo is registered with HandleInline: one call at a time keeps
// the connection idle between requests, which is the inline rule's
// worst case (see HandleInline).
func benchEcho(b *testing.B, size int, inline bool) {
	wire.PoisonReleased(false)
	mux := NewMux()
	if inline {
		mux.HandleInline(1, "echo", func(_ context.Context, p []byte) (*wire.Buffer, error) { return frameOf(p), nil })
	} else {
		mux.Handle(1, func(_ context.Context, p []byte) ([]byte, error) { return p, nil })
	}
	lis, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(mux)
	go srv.Serve(lis)
	defer srv.Close()
	conn, err := TCPDialer(lis.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	cc := &countConn{Conn: conn}
	c := NewClient(cc)
	defer c.Close()
	payload := bytes.Repeat([]byte{3}, size)
	ctx := context.Background()
	if _, err := c.Call(ctx, 1, payload); err != nil { // fill the free lists
		b.Fatal(err)
	}
	cc.writes.Store(0)
	b.SetBytes(int64(2 * size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call(ctx, 1, payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perFrame := float64(cc.writes.Load()) / float64(b.N)
	b.ReportMetric(perFrame, "conn-writes/frame")
	if perFrame > 1 {
		b.Errorf("%.2f conn writes per frame, want 1", perFrame)
	}
}

func BenchmarkCallEcho64B(b *testing.B) {
	b.Run("spawned", func(b *testing.B) { benchEcho(b, 64, false) })
	b.Run("inline", func(b *testing.B) { benchEcho(b, 64, true) })
}

func BenchmarkCallEcho1M(b *testing.B) { benchEcho(b, 1<<20, false) }
