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

	"blobseer/internal/obs"
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
	tc := obs.Context{Trace: obs.ID{Hi: 0x1111222233334444, Lo: 0x5555666677778888}, Span: 0x0102030405060708}
	body := binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(nil, 0xfeed), uint32(len(data)))
	body = append(body, data...)

	for _, tcp := range []bool{false, true} {
		for _, traced := range []bool{false, true} {
			ctx, flags, traceBlock := context.Background(), uint8(0), []byte(nil)
			if traced {
				ctx, flags = obs.NewContext(ctx, tc), flagTrace
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
			mux.HandleFrame(7, "tailed", func(context.Context, []byte) (*wire.Buffer, error) { return encode(tailed), nil })
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
		if f.Tail() != nil || !released(f) {
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

// pieceStride is where consecutive pieces of an intoMux answer start in
// its data, so that pieces landed out of order show.
const pieceStride = 7919

// intoMux serves method 1: the request lists u32 sizes, and the response
// is those sizes as its counts and then the pieces by reference, piece i
// being size_i bytes of data from i*pieceStride. Method 2 does the same
// once gate has been closed or fed; method 3 refuses.
func intoMux(data []byte, entered chan<- struct{}, gate <-chan struct{}) *Mux {
	answer := func(_ context.Context, p []byte) (*wire.Buffer, error) {
		f := NewFrame(len(p))
		copy(f.Extend(len(p)), p)
		for i := 0; i < len(p)/4; i++ {
			f.Attach(data[i*pieceStride:][:binary.BigEndian.Uint32(p[4*i:])])
		}
		return f, nil
	}
	mux := NewMux()
	mux.HandleFrame(1, "answer", answer)
	mux.HandleFrame(2, "blocked", func(ctx context.Context, p []byte) (*wire.Buffer, error) {
		entered <- struct{}{}
		<-gate
		return answer(ctx, p)
	})
	mux.Handle(3, func(context.Context, []byte) ([]byte, error) { return nil, CodedError(77, "refused") })
	return mux
}

func askFor(sizes ...int) *wire.Buffer {
	f := NewFrame(4 * len(sizes))
	for _, n := range sizes {
		f.U32(uint32(n))
	}
	return f
}

// TestCallInto: a StartInto call's data lands in dst and only the count comes back; a
// count larger than dst fails the call with ErrMisfit and, like a coded
// error, writes nothing into dst and leaves the connection serving.
func TestCallInto(t *testing.T) {
	data := blockOf(300_000)
	c := dialEcho(t, intoMux(data, nil, nil))
	ctx := context.Background()
	dst := bytes.Repeat([]byte{0xAA}, 200_000)

	for _, want := range []int{200_000, 1234, 0} { // full, short, empty
		resp, err := c.StartInto(ctx, 1, askFor(want), dst).Wait()
		if err != nil || len(resp) != 4 || int(binary.BigEndian.Uint32(resp)) != want {
			t.Fatalf("StartInto for %d bytes = head %x, %v", want, resp, err)
		}
		wire.PutBuf(resp)
		if !bytes.Equal(dst[:want], data[:want]) {
			t.Fatalf("the %d bytes in dst are not the ones sent", want)
		}
		for i, b := range dst[want:] {
			if b != 0xAA {
				t.Fatalf("dst[%d] = %#x: written past the %d bytes received", want+i, b, want)
			}
		}
		copy(dst, bytes.Repeat([]byte{0xAA}, len(dst)))
	}

	if _, err := c.StartInto(ctx, 1, askFor(200_001), dst).Wait(); !errors.Is(err, ErrMisfit) {
		t.Fatalf("a count larger than dst = %v, want ErrMisfit", err)
	}
	if _, err := c.StartInto(ctx, 3, askFor(0), dst).Wait(); CodeOf(err) != 77 {
		t.Fatalf("coded error with a destination = %v", err)
	}
	if !bytes.Equal(dst, bytes.Repeat([]byte{0xAA}, len(dst))) {
		t.Error("dst was written to by a response that did not land in it")
	}
}

// TestCallIntoLandsPieces: over a pipe (one Write per tail) and over TCP
// (one writev for them all), each piece lands in its own destination in
// order, a short last piece leaves the rest of its destination zeroed —
// no recycled, poisoned byte gets there — and a count larger than its
// destination fails the whole call before any piece lands.
func TestCallIntoLandsPieces(t *testing.T) {
	data := blockOf(100_000)
	sizes := []int{65_536, 1, 20_000, 9_000} // the last block is short of its 12_000
	for _, tcp := range []bool{false, true} {
		cli, srv := connPair(t, tcp)
		s := NewServer(intoMux(data, nil, nil))
		s.wg.Add(1)
		go s.serveConn(srv)
		c := NewClient(cli)
		ctx := context.Background()

		dsts := [][]byte{make([]byte, 65_536), make([]byte, 1), make([]byte, 20_000), make([]byte, 12_000)}
		for round := 0; round < 3; round++ { // recycled frames and records in between
			resp, err := c.StartInto(ctx, 1, askFor(sizes...), dsts...).Wait()
			if err != nil || len(resp) != 4*len(sizes) {
				t.Fatalf("tcp=%v: StartInto = %d-byte head, %v", tcp, len(resp), err)
			}
			for i, n := range sizes {
				if got := int(binary.BigEndian.Uint32(resp[4*i:])); got != n {
					t.Fatalf("tcp=%v: count %d = %d, want %d", tcp, i, got, n)
				}
				if !bytes.Equal(dsts[i][:n], data[i*pieceStride:][:n]) {
					t.Fatalf("tcp=%v: piece %d landed other bytes (out of order?)", tcp, i)
				}
			}
			wire.PutBuf(resp)
			if tail := dsts[3][sizes[3]:]; !bytes.Equal(tail, make([]byte, len(tail))) {
				t.Fatalf("tcp=%v: the short piece's destination is not zero past its count", tcp)
			}
		}

		marked := [][]byte{bytes.Repeat([]byte{0x5C}, 10), bytes.Repeat([]byte{0x5C}, 10)}
		if _, err := c.StartInto(ctx, 1, askFor(10, 11), marked...).Wait(); !errors.Is(err, ErrMisfit) {
			t.Fatalf("tcp=%v: a count larger than its destination = %v, want ErrMisfit", tcp, err)
		}
		for i, d := range marked {
			if !bytes.Equal(d, bytes.Repeat([]byte{0x5C}, 10)) {
				t.Errorf("tcp=%v: destination %d was written by a response that did not fit", tcp, i)
			}
		}
		c.Close()
		s.Close()
	}
}

// TestCallIntoMisfitKeepsFraming: counts that claim more or fewer bytes
// than the body holds, or a body shorter than its counts, fail the call
// with ErrMisfit, land nothing, and the next response on the connection
// is read from the right place.
func TestCallIntoMisfitKeepsFraming(t *testing.T) {
	counts := func(ks ...uint32) []byte {
		var b []byte
		for _, k := range ks {
			b = binary.BigEndian.AppendUint32(b, k)
		}
		return b
	}
	for name, body := range map[string][]byte{
		"short":        append(counts(10, 10), make([]byte, 15)...),
		"long":         append(counts(10, 10), make([]byte, 25)...),
		"no counts":    {0, 0, 1},
		"larger count": append(counts(10, 11), make([]byte, 21)...),
	} {
		cli, srv := net.Pipe()
		c := NewClient(cli)
		go func() {
			for id := uint64(1); id <= 2; id++ {
				io.CopyN(io.Discard, srv, int64(wire.FrameLenSize+hdrLen))
				reply := body
				if id == 2 {
					reply = append(counts(3, 2), "abcde"...)
				}
				srv.Write(rawFrame(id, 1, flagResponse, reply))
			}
		}()
		dsts := [][]byte{bytes.Repeat([]byte{0x5C}, 10), bytes.Repeat([]byte{0x5C}, 10)}
		if _, err := c.StartInto(context.Background(), 1, NewFrame(0), dsts...).Wait(); !errors.Is(err, ErrMisfit) {
			t.Fatalf("%s: StartInto = %v, want ErrMisfit", name, err)
		}
		for i, d := range dsts {
			if !bytes.Equal(d, bytes.Repeat([]byte{0x5C}, 10)) {
				t.Fatalf("%s: destination %d was written", name, i)
			}
		}
		resp, err := c.StartInto(context.Background(), 1, NewFrame(0), dsts...).Wait()
		if err != nil || string(dsts[0][:3]) != "abc" || string(dsts[1][:2]) != "de" {
			t.Fatalf("%s: the call after the misfit = %v, pieces %q %q", name, err, dsts[0][:3], dsts[1][:2])
		}
		wire.PutBuf(resp)
		c.Close()
		srv.Close()
	}
}

// TestAbandonedCallIntoLeavesDstAlone: a StartInto call that gave up (ctx, I/O
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
		_, err := c.StartInto(ctx, 2, askFor(len(dst)), dst).Wait()
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
			resp, err := c.StartInto(context.Background(), 1, askFor(len(other)), other).Wait()
			if err != nil || !bytes.Equal(other, data) {
				t.Fatalf("call %d after the abandoned one = %v", i, err)
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
// loop is filling one of its destinations — the only one, or the second
// of three — returns only once that read is over.
func TestAbandonWaitsForTheReadIntoDst(t *testing.T) {
	data := blockOf(150_000)
	for _, sizes := range [][]int{{50_000}, {10_000, 50_000, 20_000}} {
		n, addr, _ := startServer(t, intoMux(data, nil, nil))
		conn, err := n.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		dsts := make([][]byte, len(sizes))
		for i, size := range sizes {
			dsts[i] = make([]byte, size)
		}
		held := &heldRead{Conn: conn, into: dsts[len(dsts)/2], entered: make(chan struct{}), release: make(chan struct{})}
		c := NewClient(held)

		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := c.StartInto(ctx, 1, askFor(sizes...), dsts...).Wait()
			done <- err
		}()
		<-held.entered
		cancel()
		select {
		case err := <-done:
			t.Fatalf("%d pieces: the call returned (%v) while a destination was being read into", len(sizes), err)
		case <-time.After(50 * time.Millisecond):
		}
		close(held.release)
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("%d pieces: abandoned call = %v, want context.Canceled", len(sizes), err)
		}
		if i := len(dsts) / 2; !bytes.Equal(dsts[i], data[i*pieceStride:][:sizes[i]]) { // the read that had begun ran to its end
			t.Errorf("%d pieces: the read into the held destination was cut short", len(sizes))
		}
		resp, err := c.StartInto(context.Background(), 1, askFor(10), make([]byte, 10)).Wait()
		if err != nil {
			t.Fatalf("%d pieces: call after the abandoned one = %v", len(sizes), err)
		}
		wire.PutBuf(resp)
		c.Close()
	}
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
		_, err := c.StartInto(ctx, 1, askFor(len(dst)), dst).Wait()
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
