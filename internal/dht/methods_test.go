package dht

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"blobseer/internal/rpc"
	"blobseer/internal/store/storetest"
	"blobseer/internal/wire"
)

// TestMethodNumbersPinned sends raw frames to a metadata provider: the
// retired single-key put and get (methods 1 and 2) and stat (4) are
// unknown to it, and delete, put-batch and get-batch keep their numbers
// (3, 5 and 6) and payloads, so a client of either side of the
// retirement agrees on them.
func TestMethodNumbersPinned(t *testing.T) {
	c, svcs := startDHT(t, 1, 1)
	st := svcs[0].Store()
	call := func(m uint16, req []byte, dec func([]byte) error) error {
		return c.pool.Call(context.Background(), rpc.Backoff{Attempts: 1}, c.Ring().Nodes()[0], m, len(req),
			func(b *wire.Buffer) { copy(b.Extend(len(req)), req) }, dec)
	}
	pair := wire.NewBuffer(16)
	pair.String("k")
	pair.Bytes32([]byte("v"))
	for _, m := range []uint16{1, 2, 4} {
		err := call(m, pair.Bytes(), nil)
		if want := fmt.Sprintf("unknown method %d", m); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("method %d answered %v, want %q", m, err, want)
		}
	}
	if storetest.Holds(t, st, "k") {
		t.Fatal("a retired method stored its key")
	}

	if err := call(5, encodeBatch([]wire.KV{{Key: "a", Val: []byte("1")}, {Key: "b", Val: []byte("22")}}), nil); err != nil {
		t.Fatalf("put batch (5): %v", err)
	}
	keys := wire.NewBuffer(16)
	keys.StringSlice([]string{"b", "absent"})
	want := wire.NewBuffer(16)
	want.U32(2)
	want.Bool(true)
	want.Bytes32([]byte("22"))
	want.Bool(false)
	want.Bytes32(nil)
	if err := call(6, keys.Bytes(), func(p []byte) error {
		if !bytes.Equal(p, want.Bytes()) {
			return fmt.Errorf("answer %x, want %x", p, want.Bytes())
		}
		return nil
	}); err != nil {
		t.Fatalf("get batch (6): %v", err)
	}
	key := wire.NewBuffer(16)
	key.String("a")
	if err := call(3, key.Bytes(), nil); err != nil || storetest.Holds(t, st, "a") || !storetest.Holds(t, st, "b") {
		t.Fatalf("delete (3) of a: %v; a stored %v, b stored %v", err, storetest.Holds(t, st, "a"), storetest.Holds(t, st, "b"))
	}
}
