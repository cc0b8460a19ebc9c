package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
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
	mux.HandleFrame(3, "tailed", func(_ context.Context, p []byte) (*wire.Buffer, error) {
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

// FuzzCallIntoResponse answers a StartInto call of 1 to 4 dsts (sizes: a byte
// each) over net.Pipe with an arbitrary response — flags, status and body
// — and then a well-formed one. Nothing may panic; no byte may land in a
// dst past its count, nor in any dst when the call fails (a misfit among
// them); and the second call must land its bytes exactly, unless the
// first response broke the protocol and the conn was closed.
func FuzzCallIntoResponse(f *testing.F) {
	counted := func(counts []byte, pieces string) []byte { return append(counts, pieces...) }
	f.Add(uint8(flagResponse), uint16(0), []byte{3, 2}, counted([]byte{0, 0, 0, 3, 0, 0, 0, 2}, "abcde"))
	f.Add(uint8(flagResponse), uint16(0), []byte{3, 2}, counted([]byte{0, 0, 0, 3, 0, 0, 0, 3}, "abcdef")) // a count too large
	f.Add(uint8(flagResponse), uint16(0), []byte{3}, counted([]byte{0, 0, 0, 2}, "abc"))                   // a body too long
	f.Add(uint8(flagResponse), uint16(0), []byte{3, 2, 1, 9}, []byte{0, 0, 0})                             // shorter than its counts
	f.Add(uint8(flagResponse), uint16(77), []byte{3}, []byte("refused"))
	f.Add(uint8(0), uint16(0), []byte{3}, counted([]byte{0, 0, 0, 3}, "abc")) // not a response
	f.Fuzz(func(t *testing.T, flags uint8, status uint16, sizes, body []byte) {
		k := min(max(len(sizes), 1), 4)
		const guard = 8
		backing, dsts := make([][]byte, k), make([][]byte, k)
		for i := range dsts {
			n := 0
			if i < len(sizes) {
				n = int(sizes[i])
			}
			backing[i] = bytes.Repeat([]byte{0xEE}, n+guard)
			dsts[i] = backing[i][:n:n]
		}
		cli, srv := net.Pipe()
		defer srv.Close()
		c := NewClient(cli)
		defer c.Close()
		c.SetIOTimeout(5 * time.Second)
		second := make([]byte, 4*k)
		for i := range dsts {
			binary.BigEndian.PutUint32(second[4*i:], uint32(min(len(dsts[i]), 1)))
			if len(dsts[i]) > 0 {
				second = append(second, byte('A'+i))
			}
		}
		go func() {
			for id, resp := range [][]byte{body, second} {
				if _, err := io.CopyN(io.Discard, srv, int64(wire.FrameLenSize+hdrLen)); err != nil {
					return
				}
				frame := rawFrame(uint64(id+1), 1, flagResponse, resp)
				if id == 0 {
					frame[wire.FrameLenSize+10] = flags
					binary.BigEndian.PutUint16(frame[wire.FrameLenSize+11:], status)
				}
				if _, err := srv.Write(frame); err != nil {
					return
				}
			}
		}()
		resp, err := c.StartInto(context.Background(), 1, NewFrame(0), dsts...).Wait()
		for i, b := range backing {
			landed := 0
			if err == nil {
				landed = int(binary.BigEndian.Uint32(resp[4*i:]))
			}
			if rest := b[landed:]; !bytes.Equal(rest, bytes.Repeat([]byte{0xEE}, len(rest))) {
				t.Fatalf("call = %v: dst %d was written past the %d bytes it was given", err, i, landed)
			}
		}
		wire.PutBuf(resp)

		resp, err = c.StartInto(context.Background(), 1, NewFrame(0), dsts...).Wait()
		if framed := flags&flagResponse != 0; framed != (err == nil) {
			t.Fatalf("the call after a response of flags %#x = %v", flags, err)
		} else if !framed {
			return // the conn was closed
		}
		for i, d := range dsts {
			if len(d) > 0 && d[0] != byte('A'+i) {
				t.Fatalf("the call after the fuzzed response landed %q in dst %d", d[:1], i)
			}
		}
		wire.PutBuf(resp)
	})
}
