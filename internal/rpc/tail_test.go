package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/trace"
	"blobseer/internal/wire"
)

// connPair returns the two ends of a net.Pipe (no vectored write: a
// tail goes out with a second Write) or of a loopback TCP connection
// (one writev per tailed frame).
func connPair(t *testing.T, tcp bool) (cli, srv net.Conn) {
	t.Helper()
	if !tcp {
		cli, srv = net.Pipe()
	} else {
		lis, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Skipf("cannot listen on loopback: %v", err)
		}
		defer lis.Close()
		if cli, err = TCPDialer(lis.Addr().String()); err != nil {
			t.Fatal(err)
		}
		if srv, err = lis.Accept(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { cli.Close(); srv.Close() })
	return cli, srv
}

// blockOf is a block-sized payload no two bytes of which repeat in step.
func blockOf(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + i>>8)
	}
	return p
}

// TestTailedFramesMatchCopiedEncoding: a frame whose data rides as a
// tail is, on the wire, the frame that copied the data into its body —
// requests traced and untraced, responses, with and without writev.
func TestTailedFramesMatchCopiedEncoding(t *testing.T) {
	data := blockOf(100_000)
	encode := func(tailed bool) *wire.Buffer {
		f := NewFrame(16)
		f.U64(0xfeed)
		if tailed {
			f.Tail32(data)
		} else {
			f.Bytes32(data)
		}
		return f
	}
	tc := trace.Context{Trace: trace.ID{Hi: 0x1111222233334444, Lo: 0x5555666677778888}, Span: 0x0102030405060708}
	body := binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(nil, 0xfeed), uint32(len(data)))
	body = append(body, data...)

	for _, tcp := range []bool{false, true} {
		for _, traced := range []bool{false, true} {
			ctx, flags, traceBlock := context.Background(), uint8(0), []byte(nil)
			if traced {
				ctx, flags = trace.NewContext(ctx, tc), flagTrace
				traceBlock = binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, tc.Trace.Hi), tc.Trace.Lo), uint64(tc.Span))
				traceBlock = append(traceBlock, traceSampled)
			}
			golden := rawFrame(1, 7, flags, append(traceBlock, body...))[wire.FrameLenSize:]
			for _, tailed := range []bool{false, true} {
				cli, srv := connPair(t, tcp)
				c := NewClient(cli)
				got := make(chan []byte, 1)
				go func() {
					frame, _ := wire.ReadFrame(srv, 0)
					got <- frame
					srv.Write(rawFrame(1, 7, flagResponse, nil))
				}()
				resp, err := c.CallFrame(ctx, 7, encode(tailed))
				if err != nil {
					t.Fatal(err)
				}
				wire.PutBuf(resp)
				if frame := <-got; !bytes.Equal(frame, golden) {
					t.Errorf("tcp=%v traced=%v tailed=%v: request of %d bytes differs from the golden %d", tcp, traced, tailed, len(frame), len(golden))
				}
				c.Close()
			}
		}

		golden := rawFrame(9, 7, flagResponse, body)[wire.FrameLenSize:]
		for _, tailed := range []bool{false, true} {
			cli, srv := connPair(t, tcp)
			mux := NewMux()
			mux.HandleFrame(7, func(context.Context, []byte) (*wire.Buffer, error) { return encode(tailed), nil })
			s := NewServer(mux)
			s.wg.Add(1)
			go s.serveConn(srv)
			if _, err := cli.Write(rawFrame(9, 7, 0, nil)); err != nil {
				t.Fatal(err)
			}
			frame, err := wire.ReadFrame(cli, 0)
			if err != nil || !bytes.Equal(frame, golden) {
				t.Errorf("tcp=%v tailed=%v: response of %d bytes (%v) differs from the golden %d", tcp, tailed, len(frame), err, len(golden))
			}
			cli.Close()
			s.Close()
		}
	}
}

// TestTailIsOnlyRead: whatever becomes of a call — success, coded error,
// a write that dies mid-frame, a retry that encodes again — rpc leaves
// the tail as it found it, stops looking at it when the call returns,
// and releases the head frame exactly once (a second release panics
// under the poison check).
func TestTailIsOnlyRead(t *testing.T) {
	data := blockOf(70_000)
	pristine := bytes.Clone(data)
	mux := NewMux()
	mux.Handle(1, func(_ context.Context, p []byte) ([]byte, error) {
		if !bytes.Equal(wire.NewReader(p).Bytes32(), pristine) {
			return nil, errors.New("tail arrived damaged")
		}
		return nil, nil
	})
	mux.Handle(2, func(context.Context, []byte) ([]byte, error) { return nil, CodedError(77, "refused") })
	n, addr, _ := startServer(t, mux)
	ctx := context.Background()
	tailed := func() *wire.Buffer {
		f := NewFrame(4)
		f.Tail32(data)
		return f
	}
	check := func(when string, f *wire.Buffer) {
		t.Helper()
		if f.Raw() != nil || f.Tail() != nil {
			t.Errorf("%s: the frame was not released", when)
		}
		if !bytes.Equal(data, pristine) {
			t.Fatalf("%s: the tail was written to", when)
		}
	}

	c := dialEcho(t, mux)
	f := tailed()
	resp, err := c.CallFrame(ctx, 1, f)
	if err != nil {
		t.Fatal(err)
	}
	wire.PutBuf(resp)
	check("success", f)

	f = tailed()
	if _, err := c.CallFrame(ctx, 2, f); CodeOf(err) != 77 {
		t.Fatalf("coded error = %v", err)
	}
	check("coded error", f)

	cli, srv := net.Pipe()
	defer srv.Close()
	go func() { // swallow the half frame
		for buf := make([]byte, 1<<16); ; {
			if _, err := srv.Read(buf); err != nil {
				return
			}
		}
	}()
	cut := NewClient(&cutConn{Conn: cli})
	defer cut.Close()
	f = tailed()
	if _, err := cut.CallFrame(ctx, 1, f); err == nil {
		t.Fatal("a frame cut mid-write was acknowledged")
	}
	check("mid-frame write failure", f)

	var dials atomic.Int32
	pool := NewPool(func(a string) (net.Conn, error) {
		conn, err := n.Dial(a)
		if dials.Add(1) == 1 && err == nil {
			conn = &cutConn{Conn: conn} // the first attempt dies mid-frame
		}
		return conn, err
	})
	defer pool.Close()
	var frames []*wire.Buffer
	err = pool.Call(ctx, Backoff{Attempts: 3, Base: time.Millisecond}, addr, 1, 4, func(f *wire.Buffer) {
		frames = append(frames, f)
		f.Tail32(data)
	}, nil)
	if err != nil || len(frames) < 2 { // a third when the dead client is still pooled at the second
		t.Fatalf("retried call = %v after %d encodings, want success after a second", err, len(frames))
	}
	for _, f := range frames {
		check("retry", f)
	}
}

// intoMux serves method 1: the request names how many data bytes to
// answer with, as a 4-byte count and then that many bytes by reference.
// Method 2 does the same once gate has been closed or fed; method 3
// refuses.
func intoMux(data []byte, entered chan<- struct{}, gate <-chan struct{}) *Mux {
	answer := func(_ context.Context, p []byte) (*wire.Buffer, error) {
		f := NewFrame(4)
		f.Tail32(data[:binary.BigEndian.Uint32(p)])
		return f, nil
	}
	mux := NewMux()
	mux.HandleFrame(1, answer)
	mux.HandleFrame(2, func(ctx context.Context, p []byte) (*wire.Buffer, error) {
		entered <- struct{}{}
		<-gate
		return answer(ctx, p)
	})
	mux.Handle(3, func(context.Context, []byte) ([]byte, error) { return nil, CodedError(77, "refused") })
	return mux
}

func askFor(n int) *wire.Buffer {
	f := NewFrame(4)
	f.U32(uint32(n))
	return f
}

// TestCallInto: the data lands in dst and only the head comes back; a
// body that does not fit dst and a coded error arrive as from CallFrame
// and leave dst alone.
func TestCallInto(t *testing.T) {
	data := blockOf(300_000)
	c := dialEcho(t, intoMux(data, nil, nil))
	ctx := context.Background()
	dst := bytes.Repeat([]byte{0xAA}, 200_000)

	for _, want := range []int{200_000, 1234, 0} { // full, short, empty
		resp, n, err := c.CallInto(ctx, 1, askFor(want), 4, dst)
		if err != nil || n != want || len(resp) != 4 || int(binary.BigEndian.Uint32(resp)) != want {
			t.Fatalf("CallInto for %d bytes = head %x, n %d, %v", want, resp, n, err)
		}
		wire.PutBuf(resp)
		if !bytes.Equal(dst[:n], data[:n]) {
			t.Fatalf("the %d bytes in dst are not the ones sent", n)
		}
		for i, b := range dst[n:] {
			if b != 0xAA {
				t.Fatalf("dst[%d] = %#x: written past the %d bytes received", n+i, b, n)
			}
		}
		copy(dst, bytes.Repeat([]byte{0xAA}, len(dst)))
	}

	resp, n, err := c.CallInto(ctx, 1, askFor(200_001), 4, dst)
	if err != nil || n != 0 || len(resp) != 4+200_001 || !bytes.Equal(resp[4:], data[:200_001]) {
		t.Fatalf("a body larger than dst = %d bytes, n %d, %v; want the whole body as from CallFrame", len(resp), n, err)
	}
	wire.PutBuf(resp)
	if _, _, err := c.CallInto(ctx, 3, askFor(0), 4, dst); CodeOf(err) != 77 {
		t.Fatalf("coded error with a destination = %v", err)
	}
	if !bytes.Equal(dst, bytes.Repeat([]byte{0xAA}, len(dst))) {
		t.Error("dst was written to by a response that did not land in it")
	}
}

// TestAbandonedCallIntoLeavesDstAlone: a call that gave up (ctx, I/O
// timeout) while its handler was still working has returned the caller's
// buffer for good: the late response, and 50 calls after it, write
// nothing there.
func TestAbandonedCallIntoLeavesDstAlone(t *testing.T) {
	data := blockOf(100_000)
	entered, gate := make(chan struct{}, 1), make(chan struct{})
	c := dialEcho(t, intoMux(data, entered, gate))
	dst := make([]byte, len(data))
	other := make([]byte, len(data))
	pattern := bytes.Repeat([]byte{0x5C}, len(dst))

	for _, byTimeout := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		want := context.Canceled
		if byTimeout {
			c.SetIOTimeout(30 * time.Millisecond)
			want = ErrCallTimeout
		} else {
			go func() { <-entered; cancel() }()
		}
		_, _, err := c.CallInto(ctx, 2, askFor(len(dst)), 4, dst)
		if !errors.Is(err, want) {
			t.Fatalf("abandoned call = %v, want %v", err, want)
		}
		if byTimeout {
			<-entered
		}
		c.SetIOTimeout(time.Minute)
		copy(dst, pattern)
		gate <- struct{}{} // the late answer is on its way
		for i := 0; i < 50; i++ {
			resp, n, err := c.CallInto(context.Background(), 1, askFor(len(other)), 4, other)
			if err != nil || n != len(other) || !bytes.Equal(other, data) {
				t.Fatalf("call %d after the abandoned one = n %d, %v", i, n, err)
			}
			wire.PutBuf(resp)
		}
		if !bytes.Equal(dst, pattern) {
			t.Fatalf("byTimeout=%v: dst was written to after its call returned", byTimeout)
		}
		cancel()
	}
}

// heldRead is a conn whose Read into one particular buffer announces
// itself and then waits to be let through.
type heldRead struct {
	net.Conn
	into             []byte
	entered, release chan struct{}
}

func (c *heldRead) Read(p []byte) (int, error) {
	if len(p) > 0 && &p[0] == &c.into[0] {
		c.entered <- struct{}{}
		<-c.release
	}
	return c.Conn.Read(p)
}

// TestAbandonWaitsForTheReadIntoDst: a call cancelled while the read
// loop is filling its dst returns only once that read is over.
func TestAbandonWaitsForTheReadIntoDst(t *testing.T) {
	data := blockOf(50_000)
	n, addr, _ := startServer(t, intoMux(data, nil, nil))
	conn, err := n.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(data))
	held := &heldRead{Conn: conn, into: dst, entered: make(chan struct{}), release: make(chan struct{})}
	c := NewClient(held)
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.CallInto(ctx, 1, askFor(len(dst)), 4, dst)
		done <- err
	}()
	<-held.entered
	cancel()
	select {
	case err := <-done:
		t.Fatalf("the call returned (%v) while its dst was being read into", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(held.release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned call = %v, want context.Canceled", err)
	}
	if !bytes.Equal(dst, data) { // the read that had begun ran to its end
		t.Error("the read into dst was cut short")
	}
	resp, got, err := c.CallInto(context.Background(), 1, askFor(10), 4, make([]byte, 10))
	if err != nil || got != 10 {
		t.Fatalf("call after the abandoned one = n %d, %v", got, err)
	}
	wire.PutBuf(resp)
}

// TestAbandonIsBoundedWithoutIOTimeout: a peer that stalls in the middle
// of a response being read into dst cannot hold a cancelled call for
// ever, I/O timeout or none — after landGrace the connection is closed.
func TestAbandonIsBoundedWithoutIOTimeout(t *testing.T) {
	defer func(d time.Duration) { landGrace = d }(landGrace)
	landGrace = 30 * time.Millisecond
	cli, srv := net.Pipe()
	defer srv.Close()
	c := NewClient(cli) // no SetIOTimeout
	defer c.Close()

	data := blockOf(10_000)
	body := append(binary.BigEndian.AppendUint32(nil, uint32(len(data))), data...)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		io.CopyN(io.Discard, srv, int64(wire.FrameLenSize+hdrLen+4)) // the request
		resp := rawFrame(1, 1, flagResponse, body)
		srv.Write(resp[:len(resp)-len(data)/2]) // returns once the read loop has it: half of dst is filled
		cancel()
	}()
	dst := make([]byte, len(data))
	done := make(chan error, 1)
	go func() {
		_, _, err := c.CallInto(ctx, 1, askFor(len(dst)), 4, dst)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("abandoned call = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a call abandoned mid-landing on a client without an I/O timeout never returned")
	}
	if _, err := c.CallFrame(context.Background(), 1, askFor(1)); err == nil {
		t.Error("the wedged connection is still in use")
	}
}
