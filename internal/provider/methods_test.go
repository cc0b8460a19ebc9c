package provider

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/rpc"
	"blobseer/internal/store/storetest"
	"blobseer/internal/wire"
)

// Hand-built payload pieces, so the test pins bytes, not the encoder.
func u32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func u64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
func str(b []byte, s string) []byte { return append(u32(b, uint32(len(s))), s...) }
func rawKey(b []byte, k blob.BlockKey) []byte {
	return u32(u64(u64(b, uint64(k.Blob)), k.Nonce), k.Seq)
}

// TestMethodNumbersPinned sends raw frames to a provider: the retired
// whole-block put, presence check and stat (methods 1, 3 and 6) are
// unknown to it, and get, delete-write, delete-block, chained put, block
// report, replicate and get by name keep their numbers (2, 4, 5, 7, 8, 9
// and 10) and payloads, the chained put's naming its transfer. A get range of
// negative length is refused.
func TestMethodNumbersPinned(t *testing.T) {
	c, addrs, svcs := chainCluster(t, 2)
	st := svcs[0].Store()
	call := func(m uint16, req []byte, dec func([]byte) error) error {
		return c.pool.Call(context.Background(), rpc.Backoff{Attempts: 1}, addrs[0], m, len(req),
			func(b *wire.Buffer) { copy(b.Extend(len(req)), req) }, dec)
	}
	answers := func(want []byte) func([]byte) error {
		return func(p []byte) error {
			if !bytes.Equal(p, want) {
				return fmt.Errorf("answer %x, want %x", p, want)
			}
			return nil
		}
	}
	k := blob.BlockKey{Blob: 1, Nonce: 2, Seq: 3}
	k2 := blob.BlockKey{Blob: 1, Nonce: 5}
	for _, m := range []uint16{1, 3, 6} {
		err := call(m, rawKey(nil, k), nil)
		if want := fmt.Sprintf("unknown method %d", m); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("method %d answered %v, want %q", m, err, want)
		}
	}

	// key | transfer | chain [] | off 0 | total 3 | data
	if err := call(7, str(u64(u64(u32(u64(rawKey(nil, k), 0x71), 0), 0), 3), "abc"), answers(nil)); err != nil {
		t.Fatalf("one-hop chained put (7): %v", err)
	}
	if err := call(2, encodeRange(k, 1, 5), answers(append(u32(nil, 2), "bc"...))); err != nil {
		t.Fatalf("get (2): %v", err)
	}
	if err := call(2, encodeRange(k, 0, -1), nil); err == nil || strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("get (2) of a negative length = %v, want it refused", err)
	}
	// A mem:// store answers a get by name with an empty first piece and
	// the bytes.
	if err := call(10, encodeRange(k, 1, 5), answers(append(u32(u32(nil, 0), 2), "bc"...))); err != nil {
		t.Fatalf("get by name (10): %v", err)
	}
	// key | transfer | chain [addrs[1]] | off 0 | total 4 | data
	chained := str(u64(u64(str(u32(u64(rawKey(nil, k2), 0x72), 1), addrs[1]), 0), 4), "wxyz")
	if err := call(7, chained, answers(nil)); err != nil {
		t.Fatalf("chained put (7): %v", err)
	}
	if err := call(8, str(nil, k2.WritePrefix()), answers(rawKey(u32(nil, 1), k2))); err != nil {
		t.Fatalf("block report (8): %v", err)
	}
	if err := call(9, str(u32(rawKey(nil, k), 1), addrs[1]), answers(nil)); err != nil {
		t.Fatalf("replicate (9): %v", err)
	}
	for _, tc := range []struct {
		key  blob.BlockKey
		want string
	}{{k, "abc"}, {k2, "wxyz"}} {
		if got, err := svcs[1].Store().Get(tc.key.String()); err != nil || string(got) != tc.want {
			t.Fatalf("downstream replica of %v = %q, %v; want %q", tc.key, got, err, tc.want)
		}
	}
	if err := call(5, rawKey(nil, k2), answers(nil)); err != nil || storetest.Holds(t, st, k2.String()) {
		t.Fatalf("delete block (5): %v; still stored %v", err, storetest.Holds(t, st, k2.String()))
	}
	if err := call(4, u64(u64(nil, 1), 2), answers(u32(nil, 1))); err != nil || storetest.Holds(t, st, k.String()) {
		t.Fatalf("delete write (4): %v; still stored %v", err, storetest.Holds(t, st, k.String()))
	}
}
