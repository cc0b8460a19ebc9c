package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"blobseer/internal/wire"
)

// rawFrame builds length prefix + header + body by hand.
func rawFrame(id uint64, method uint16, flags uint8, body []byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(hdrLen+len(body)))
	b = binary.BigEndian.AppendUint64(b, id)
	b = binary.BigEndian.AppendUint16(b, method)
	b = append(b, flags, 0, 0)
	return append(b, body...)
}

// FuzzServerFrame feeds arbitrary bytes to a served connection. The
// server must neither panic nor hang nor release a buffer twice (the
// suite runs poisoned), and a length prefix above wire.MaxFrameSize
// must close the connection before any payload-sized buffer is taken.
func FuzzServerFrame(f *testing.F) {
	f.Add(rawFrame(1, 1, 0, []byte("untraced")))
	f.Add(rawFrame(2, 1, flagTrace, append(make([]byte, traceHdrLen-1), traceSampled, 'x')))
	f.Add(rawFrame(3, 1, flagTrace, []byte("short trace block")[:5]))
	f.Add(rawFrame(4, 1, 0, nil)[:4+hdrLen-3]) // truncated header
	f.Add([]byte{0, 0, 0, 5, 1, 2, 3, 4, 5})   // frame shorter than a header
	f.Add(binary.BigEndian.AppendUint32(nil, wire.MaxFrameSize+1))
	f.Add(rawFrame(5, 1, flagResponse, []byte("a response")))
	f.Add(append(rawFrame(6, 2, 0, nil), rawFrame(7, 99, 0, []byte("unknown method"))...))
	// A control method (the shape of vmanager's commit and latest): two
	// words in, a frame-encoded reply, a coded error, or nothing at all.
	words := func(a, b uint64) []byte {
		return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, a), b)
	}
	f.Add(rawFrame(8, 3, 0, words(1, 7)))
	f.Add(rawFrame(9, 3, 0, words(0, 7)))      // coded error reply
	f.Add(rawFrame(10, 3, 0, words(2, 0)))     // empty reply
	f.Add(rawFrame(11, 3, 0, words(1, 7)[:9])) // short request
	f.Add(append(rawFrame(12, 3, 0, words(1, 1)), rawFrame(13, 3, flagTrace, words(1, 2))...))

	mux := NewMux()
	mux.Handle(1, func(_ context.Context, p []byte) ([]byte, error) { return p, nil })
	mux.Handle(2, func(context.Context, []byte) ([]byte, error) { return nil, errors.New("refused") })
	mux.HandleFrame(3, func(_ context.Context, p []byte) (*wire.Buffer, error) {
		r := wire.NewReader(p)
		id, v := r.U64(), r.U64()
		switch {
		case r.Err() != nil:
			return nil, r.Err()
		case id == 0:
			return nil, CodedError(20, "unknown blob")
		case v == 0:
			return nil, nil
		}
		resp := NewFrame(16)
		resp.U64(v)
		resp.U64(id)
		return resp, nil
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, addr, srv := startServer(t, mux)
		conn, err := n.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		closed := make(chan struct{})
		go func() { // drain responses until the server hangs up
			io.Copy(io.Discard, conn)
			close(closed)
		}()
		oversize := len(data) >= 4 && binary.BigEndian.Uint32(data) > wire.MaxFrameSize
		var before runtime.MemStats
		if oversize {
			runtime.ReadMemStats(&before)
		}
		conn.Write(data) // fails once the server has dropped the conn: fine
		if oversize {
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
				t.Fatal("oversize length prefix did not close the connection")
			}
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("oversize length prefix allocated %d bytes", grew)
			}
		}
		conn.Close()
		done := make(chan struct{})
		go func() { srv.Close(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("server did not shut down: a handler or the read loop hangs")
		}
	})
}
