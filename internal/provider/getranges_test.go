package provider

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"runtime"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/rpc"
	"blobseer/internal/store"
	"blobseer/internal/wire"
)

// serveProvider serves a provider over st at address "p" of an inproc
// network and returns a client of it.
func serveProvider(t *testing.T, st store.Store) *Client {
	t.Helper()
	n := rpc.NewInprocNetwork()
	lis, err := n.Listen("p")
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(NewService(st).Mux())
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	pool := rpc.NewPool(n.Dial)
	t.Cleanup(pool.Close)
	return NewClient(pool)
}

func marked(n int) []byte { return bytes.Repeat([]byte{0xAA}, n) }

// TestGetRanges: one call fetches ranges of several blocks, whether the
// store lent them, lent their files or read them into the frame. Each
// lands in its own destination; a block shorter than its range yields its
// count and leaves the rest of the destination alone; a missing block
// fails the call before any destination is written.
func TestGetRanges(t *testing.T) {
	for name, st := range map[string]store.Store{"lends": store.NewMemStore(), "files": fileStore(t), "reads": noLend{store.NewMemStore()}} {
		t.Run(name, func(t *testing.T) {
			c, ctx := serveProvider(t, st), context.Background()
			var keys []blob.BlockKey
			var blocks [][]byte
			for i, size := range []int{40_000, 70_000, 5_000} {
				keys = append(keys, blob.BlockKey{Blob: 1, Nonce: 9, Seq: uint32(i)})
				blocks = append(blocks, bytes.Repeat([]byte{byte('a' + i), byte(i)}, size/2))
				if err := c.PutChained(ctx, []string{"p"}, keys[i], blocks[i], 0); err != nil {
					t.Fatal(err)
				}
			}
			rs := []Range{
				{Key: keys[1], Off: 1_000, Dst: marked(30_000)},
				{Key: keys[0], Off: 0, Dst: marked(40_000)},
				{Key: keys[2], Off: 4_000, Dst: marked(3_000)}, // short: the block ends first
				{Key: keys[1], Off: 70_000, Dst: marked(10)},   // at the block's end
			}
			if err := c.GetRanges(ctx, "p", rs); err != nil {
				t.Fatal(err)
			}
			for i, want := range []int{30_000, 40_000, 1_000, 0} {
				r := rs[i]
				block := blocks[map[blob.BlockKey]int{keys[0]: 0, keys[1]: 1, keys[2]: 2}[r.Key]]
				if r.N != want || !bytes.Equal(r.Dst[:r.N], block[r.Off:r.Off+int64(r.N)]) {
					t.Fatalf("range %d = %d bytes, want %d of its block's", i, r.N, want)
				}
				if rest := r.Dst[r.N:]; !bytes.Equal(rest, marked(len(rest))) {
					t.Fatalf("range %d: written past the %d bytes it returned", i, r.N)
				}
			}

			missing := []Range{
				{Key: keys[0], Dst: marked(100)},
				{Key: blob.BlockKey{Blob: 1, Nonce: 9, Seq: 7}, Dst: marked(100)},
			}
			if err := c.GetRanges(ctx, "p", missing); rpc.CodeOf(err) != CodeNotFound {
				t.Fatalf("GetRanges with a missing block = %v, want CodeNotFound", err)
			}
			for i, r := range missing {
				if !bytes.Equal(r.Dst, marked(100)) {
					t.Errorf("destination %d was written by a call that failed", i)
				}
			}
		})
	}
}

// answerOnce plays a provider's peer on conn: it reads one request frame,
// answers it with body as a successful response and returns the
// request's payload.
func answerOnce(conn net.Conn, body []byte) ([]byte, error) {
	req, err := wire.ReadFrame(conn, 0)
	if err != nil {
		return nil, err
	}
	const hdr = 8 + 2 + 1 + 2 // id, method, flags, status
	resp := binary.BigEndian.AppendUint32(nil, uint32(hdr+len(body)))
	resp = append(resp, req[:10]...) // the request's id and method
	resp = append(resp, 1, 0, 0)     // a response, status OK
	_, err = conn.Write(append(resp, body...))
	return req[hdr:], err
}

// pipeClient returns a client whose every dial yields the near end of a
// pipe whose far end is returned. The pipe reports a peer on another
// host, so the client's gets are mGetBlock calls.
func pipeClient(t testing.TB) (*Client, net.Conn) {
	cli, srv := net.Pipe()
	pool := rpc.NewPool(func(string) (net.Conn, error) { return remoteConn{cli}, nil })
	t.Cleanup(func() { pool.Close(); srv.Close() })
	return NewClient(pool), srv
}

// encodeRange is one range as the request carries it, built by hand.
func encodeRange(k blob.BlockKey, off, length int64) []byte {
	b := binary.BigEndian.AppendUint64(nil, uint64(k.Blob))
	b = binary.BigEndian.AppendUint64(b, k.Nonce)
	b = binary.BigEndian.AppendUint32(b, k.Seq)
	b = binary.BigEndian.AppendUint64(b, uint64(off))
	return binary.BigEndian.AppendUint64(b, uint64(length))
}

// TestGetOneRangeWire: a one-range get is on the wire what it was before
// requests carried lists — key | off | len in, count | bytes out — and
// several ranges are those requests back to back, answered by every
// count and then every piece.
func TestGetOneRangeWire(t *testing.T) {
	key := blob.BlockKey{Blob: 3, Nonce: 0x0102030405060708, Seq: 5}
	data := []byte("0123456789")

	c, srv := pipeClient(t)
	reqc := make(chan []byte, 1)
	go func() {
		req, _ := answerOnce(srv, append(binary.BigEndian.AppendUint32(nil, 7), data[:7]...))
		reqc <- req
	}()
	dst := marked(8)
	if n, err := c.GetInto(context.Background(), "p", key, 3, dst); err != nil || n != 7 || string(dst[:7]) != "0123456" {
		t.Fatalf("GetInto = %d %q, %v", n, dst, err)
	}
	if req := <-reqc; !bytes.Equal(req, encodeRange(key, 3, 8)) {
		t.Errorf("one-range request = %x, want key | off | len = %x", req, encodeRange(key, 3, 8))
	}

	for name, st := range map[string]store.Store{"lends": store.NewMemStore(), "reads": noLend{store.NewMemStore()}} {
		if err := st.Put(key.String(), data); err != nil {
			t.Fatal(err)
		}
		svc := NewService(st)
		for _, tc := range []struct {
			req, want []byte
		}{
			{encodeRange(key, 2, 5), append(binary.BigEndian.AppendUint32(nil, 5), "23456"...)},
			{append(encodeRange(key, 8, 4), encodeRange(key, 0, 3)...), append(binary.BigEndian.AppendUint64(nil, 2<<32|3), "89012"...)},
		} {
			f, err := svc.handleGetBlock(context.Background(), tc.req)
			if err != nil {
				t.Fatal(err)
			}
			got := append(bytes.Clone(f.Bytes()), bytes.Join(f.AppendTails(nil), nil)...)
			f.Release()
			if !bytes.Equal(got, tc.want) {
				t.Errorf("%s: response to %d ranges = %x, want %x", name, len(tc.req)/rangeSize, got, tc.want)
			}
		}
	}
}

// FuzzGetBlockRanges covers both ends of the range list. The server's
// decode of a request either refuses it or answers a count per whole
// range and exactly the bytes those count, allocating in proportion to
// the request, not to anything it claims. The client's check of a
// response either fails the call with every destination untouched, or
// lands counts that fit, each piece in its own destination.
func FuzzGetBlockRanges(f *testing.F) {
	k0, k1 := blob.BlockKey{Blob: 1, Nonce: 1}, blob.BlockKey{Blob: 1, Nonce: 1, Seq: 1}
	counts := func(ks ...uint32) []byte {
		var b []byte
		for _, k := range ks {
			b = binary.BigEndian.AppendUint32(b, k)
		}
		return b
	}
	f.Add(encodeRange(k0, 0, 100), append(counts(16), make([]byte, 16)...))
	// A negative length, which the server refuses.
	f.Add(append(encodeRange(k0, 50, 10), encodeRange(k1, 0, -1)...), append(counts(8, 0, 15), make([]byte, 23)...))
	f.Add(append(encodeRange(k0, 0, 10), 1, 2, 3), append(counts(8, 0, 17), make([]byte, 25)...)) // trailing bytes; a count too large
	f.Add(encodeRange(blob.BlockKey{Seq: 9}, 0, 1), append(counts(4), make([]byte, 5)...))        // a missing block; a body too long
	f.Add(encodeRange(k0, -5, 1<<62), counts(3)[:2])                                              // odd numbers; a body shorter than its counts
	f.Add([]byte{}, []byte{})

	st := store.NewMemStore()
	st.Put(k0.String(), bytes.Repeat([]byte{7}, 100))
	st.Put(k1.String(), bytes.Repeat([]byte{8}, 10))
	svc := NewService(st)
	f.Fuzz(func(t *testing.T, req, resp []byte) {
		if out, err := svc.handleGetBlock(context.Background(), req); err == nil {
			out.Release() // the free lists it draws on are filled now, not while measured
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := svc.handleGetBlock(context.Background(), req)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(8*len(req)+64<<10) {
			t.Fatalf("a %d-byte request allocated %d bytes", len(req), grew)
		}
		if err == nil {
			k, body := len(req)/rangeSize, out.Bytes()
			if k == 0 || len(req) != k*rangeSize || len(body) < 4*k {
				t.Fatalf("a %d-byte request was answered with %d bytes of body", len(req), len(body))
			}
			counted, sent := 0, len(body)-4*k
			for i := 0; i < k; i++ {
				counted += int(binary.BigEndian.Uint32(body[4*i:]))
			}
			for _, p := range out.AppendTails(nil) {
				sent += len(p)
			}
			out.Release()
			if counted != sent {
				t.Fatalf("the counts add up to %d bytes, the response carries %d", counted, sent)
			}
		}

		c, srv := pipeClient(t)
		go answerOnce(srv, resp)
		rs := []Range{{Key: k0, Dst: marked(16)}}
		if len(resp)%2 == 1 {
			rs = []Range{{Key: k0, Dst: marked(8)}, {Key: k1}, {Key: k1, Dst: marked(16)}}
		}
		if err := c.GetRanges(context.Background(), "p", rs); err != nil {
			for i, r := range rs {
				if !bytes.Equal(r.Dst, marked(len(r.Dst))) {
					t.Fatalf("destination %d was written by a call that failed (%v)", i, err)
				}
			}
			return
		}
		off := 4 * len(rs)
		for i, r := range rs {
			if r.N > len(r.Dst) || off+r.N > len(resp) || !bytes.Equal(r.Dst[:r.N], resp[off:off+r.N]) {
				t.Fatalf("range %d landed %d bytes that are not its piece of the response", i, r.N)
			}
			if rest := r.Dst[r.N:]; !bytes.Equal(rest, marked(len(rest))) {
				t.Fatalf("range %d: written past its count", i)
			}
			off += r.N
		}
		if off != len(resp) {
			t.Fatalf("a %d-byte response was accepted for %d bytes of counts and pieces", len(resp), off)
		}
	})
}

// TestGetBlockAllocatesNothing: serving a 3-range get off a store that
// lends allocates nothing once the frame and key scratch are recycled:
// no block's key becomes a string of its own.
func TestGetBlockAllocatesNothing(t *testing.T) {
	wire.PoisonReleased(false) // the poison bookkeeping allocates
	defer wire.PoisonReleased(true)
	st := store.NewMemStore()
	svc := NewService(st)
	var req []byte
	for i := range 3 {
		key := blob.BlockKey{Blob: 1 << 40, Nonce: 0xfedcba9876543210, Seq: 1<<31 + uint32(i)} // a text longer than 32 bytes
		st.Put(key.String(), marked(1_000))
		req = append(req, encodeRange(key, 100, 500)...)
	}
	get := func() {
		f, err := svc.handleGetBlock(context.Background(), req)
		if err != nil || f.Len() != 3*4 || binary.BigEndian.Uint32(f.Bytes()[8:]) != 500 {
			t.Fatalf("get = %v", err)
		}
		f.Release()
	}
	if n := testing.AllocsPerRun(100, get); n != 0 {
		t.Errorf("a 3-range get allocates %v times, want 0", n)
	}
}
