package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"blobseer/internal/obs"
	"blobseer/internal/wire"
)

// rawExchange captures the exact frame Client.Call puts on the wire for
// one request, answers it with a canned OK response, and returns the
// raw request bytes.
func rawExchange(t *testing.T, ctx context.Context, method uint16, payload []byte) []byte {
	t.Helper()
	cliConn, srvConn := net.Pipe()
	c := NewClient(cliConn)
	defer c.Close()

	frameCh := make(chan []byte, 1)
	go func() {
		frame, err := wire.ReadFrame(srvConn, 0)
		if err != nil {
			close(frameCh)
			return
		}
		frameCh <- frame
		// Minimal OK response: echo the request id.
		buf := wire.NewBuffer(13)
		buf.U64(binary.BigEndian.Uint64(frame[:8]))
		buf.U16(method)
		buf.U8(flagResponse)
		buf.U16(StatusOK)
		_ = wire.WriteFrame(srvConn, buf.Bytes())
	}()

	if _, err := c.Call(ctx, method, payload); err != nil {
		t.Fatal(err)
	}
	frame, ok := <-frameCh
	if !ok {
		t.Fatal("no frame captured")
	}
	return frame
}

// TestWireFormatUntracedPinned pins the untraced request frame to the
// pre-trace protocol byte for byte: u64 id | u16 method | u8 0 | u16 0 |
// payload, nothing else. Old peers must interoperate with new clients
// as long as no trace context rides the call.
func TestWireFormatUntracedPinned(t *testing.T) {
	payload := []byte("payload-bytes")
	frame := rawExchange(t, context.Background(), 7, payload)

	want := []byte{
		0, 0, 0, 0, 0, 0, 0, 1, // request id 1 (first call on the client)
		0, 7, // method
		0,    // flags: no response bit, no trace bit
		0, 0, // status
	}
	want = append(want, payload...)
	if !bytes.Equal(frame, want) {
		t.Errorf("untraced frame:\n got %x\nwant %x", frame, want)
	}
}

// TestWireFormatTraced pins the traced layout: the legacy 13-byte
// header with the trace bit set, then exactly 25 trace bytes (trace id
// hi, lo, parent span, flags), then the payload.
func TestWireFormatTraced(t *testing.T) {
	id := obs.ID{Hi: 0x1111222233334444, Lo: 0x5555666677778888}
	ctx := obs.NewContext(context.Background(), obs.Context{Trace: id, Span: 0x0102030405060708})
	payload := []byte("xyz")
	frame := rawExchange(t, ctx, 9, payload)

	want := []byte{
		0, 0, 0, 0, 0, 0, 0, 1, // request id
		0, 9, // method
		flagTrace, // flags
		0, 0,      // status
		0x11, 0x11, 0x22, 0x22, 0x33, 0x33, 0x44, 0x44, // trace id hi
		0x55, 0x55, 0x66, 0x66, 0x77, 0x77, 0x88, 0x88, // trace id lo
		0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, // parent span
		traceSampled, // trace flags
	}
	want = append(want, payload...)
	if len(frame) != 13+traceHdrLen+len(payload) {
		t.Fatalf("traced frame length = %d, want %d", len(frame), 13+traceHdrLen+len(payload))
	}
	if !bytes.Equal(frame, want) {
		t.Errorf("traced frame:\n got %x\nwant %x", frame, want)
	}
}

// TestTracePropagation: a traced call's server-side span must join the
// caller's trace with the caller's span as parent, named as its method
// is registered.
func TestTracePropagation(t *testing.T) {
	mux := NewMux()
	mux.HandleFrame(3, "op3", func(ctx context.Context, p []byte) (*wire.Buffer, error) {
		// The traced request's handler must see the inbound context.
		if string(p) == "traced" {
			if tc, ok := obs.FromContext(ctx); !ok || tc.Trace.IsZero() {
				t.Error("handler ctx carries no trace context")
			}
		}
		return frameOf([]byte("ok")), nil
	})
	n := NewInprocNetwork()
	lis, err := n.Listen("traced")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer("svc")
	srv := NewServer(mux)
	srv.SetTrace(tr)
	go srv.Serve(lis)
	defer srv.Close()

	conn, err := n.Dial("traced")
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	defer c.Close()

	id := obs.NewID()
	ctx := obs.NewContext(context.Background(), obs.Context{Trace: id, Span: 42})
	if _, err := c.Call(ctx, 3, []byte("traced")); err != nil {
		t.Fatal(err)
	}

	spans := tr.Spans(id)
	if len(spans) != 1 {
		t.Fatalf("server recorded %d spans for the trace, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Op != "op3" || sp.Service != "svc" {
		t.Errorf("span = %s.%s, want svc.op3", sp.Service, sp.Op)
	}
	if sp.Parent != 42 {
		t.Errorf("span parent = %d, want the caller's span 42", sp.Parent)
	}

	// An untraced call through the same server must record nothing.
	before := tr.Recorded()
	if _, err := c.Call(context.Background(), 3, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if tr.Recorded() != before {
		t.Error("untraced call recorded a server span")
	}
}

// TestTraceErrorSpan: a failing handler's span must carry the wire
// status code and message.
func TestTraceErrorSpan(t *testing.T) {
	mux := NewMux()
	mux.Handle(4, func(ctx context.Context, p []byte) ([]byte, error) {
		return nil, CodedError(42, "nope")
	})
	n := NewInprocNetwork()
	lis, err := n.Listen("erring")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer("svc")
	srv := NewServer(mux)
	srv.SetTrace(tr) // a method registered by Handle has no name: the numeric fallback
	go srv.Serve(lis)
	defer srv.Close()

	conn, _ := n.Dial("erring")
	c := NewClient(conn)
	defer c.Close()

	ctx, id := obs.WithRoot(context.Background())
	if _, err := c.Call(ctx, 4, nil); err == nil {
		t.Fatal("expected remote error")
	}
	spans := tr.Spans(id)
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	if spans[0].Op != "m4" {
		t.Errorf("fallback op name = %q, want m4", spans[0].Op)
	}
	if spans[0].Code != 42 || spans[0].Err != "nope" {
		t.Errorf("error span = code %d err %q, want 42 %q", spans[0].Code, spans[0].Err, "nope")
	}
}

// TestTraceSurvivesRetryRedial: the trace context lives on the caller's
// ctx, not the connection, so a Retry loop that re-dials after
// transport failures must deliver the same trace ID to the server that
// finally answers.
func TestTraceSurvivesRetryRedial(t *testing.T) {
	mux := NewMux()
	mux.HandleFrame(5, "flaky_op", func(ctx context.Context, p []byte) (*wire.Buffer, error) {
		return frameOf([]byte("ok")), nil
	})
	n := NewInprocNetwork()
	lis, err := n.Listen("flaky")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer("svc")
	srv := NewServer(mux)
	srv.SetTrace(tr)
	go srv.Serve(lis)
	defer srv.Close()

	ctx, id := obs.WithRoot(context.Background())
	attempts := 0
	err = Retry(ctx, Backoff{Attempts: 5, Base: time.Millisecond}, func(ctx context.Context) error {
		attempts++
		if attempts < 3 {
			// Simulate a dead peer: dial a nonexistent endpoint.
			if _, err := n.Dial("nowhere"); err != nil {
				return err
			}
			t.Fatal("dial of nonexistent endpoint succeeded")
		}
		conn, err := n.Dial("flaky")
		if err != nil {
			return err
		}
		c := NewClient(conn)
		defer c.Close()
		_, err = c.Call(ctx, 5, []byte("req"))
		return err
	})
	if err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	spans := tr.Spans(id)
	if len(spans) != 1 {
		t.Fatalf("server holds %d spans of the trace after re-dials, want exactly 1", len(spans))
	}
	if spans[0].Op != "flaky_op" {
		t.Errorf("span op = %q", spans[0].Op)
	}
}
