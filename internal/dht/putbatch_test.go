package dht

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"blobseer/internal/store"
	"blobseer/internal/wire"
)

// nodeBatch is one append's metadata as a provider receives it: 11
// tree-node keys of one version, each with a node-sized value.
func nodeBatch(version int, tag byte) []wire.KV {
	kvs := make([]wire.KV, 11)
	for i := range kvs {
		kvs[i] = wire.KV{
			Key: fmt.Sprintf("t7/%d/%d/%d", version, i*65536, 65536<<(i%4)),
			Val: bytes.Repeat([]byte{tag, byte(i)}, 20+i),
		}
	}
	return kvs
}

// encodeBatch frames kvs as an mMetaPutBatch request: a u32 count, then
// each pair's key and value, both length-prefixed.
func encodeBatch(kvs []wire.KV) []byte {
	b := wire.NewBuffer(1024)
	b.U32(uint32(len(kvs)))
	for _, kv := range kvs {
		b.String(kv.Key)
		b.Bytes32(kv.Val)
	}
	return b.Bytes()
}

// decodeBatch is the reference decoder of an mMetaPutBatch request, a
// string per key where the handler makes none. It reports whether the
// payload decodes.
func decodeBatch(payload []byte) ([]wire.KV, bool) {
	r := wire.NewReader(payload)
	n := r.U32()
	var kvs []wire.KV
	for i := uint32(0); i < n && r.Err() == nil; i++ { // stops at the first pair cut short
		kvs = append(kvs, wire.KV{Key: r.String(), Val: r.Bytes32()})
	}
	return kvs, r.Err() == nil
}

// storedAs reports whether st holds exactly kvs, a later pair of a key
// winning over an earlier one.
func storedAs(st store.Store, kvs []wire.KV) error {
	want := map[string][]byte{}
	for _, kv := range kvs {
		want[kv.Key] = kv.Val
	}
	if n := st.Stats().Items; n != int64(len(want)) {
		return fmt.Errorf("store holds %d keys, want %d", n, len(want))
	}
	for k, v := range want {
		if got, err := st.Get(k); err != nil || !bytes.Equal(got, v) {
			return fmt.Errorf("%s = %x, %v; want %x", k, got, err, v)
		}
	}
	return nil
}

// TestPutBatchCostsAFewAllocations: a mem store keeps one append's
// metadata batch without allocating: the pairs' view of the payload is
// recycled, and the keys and values are carved from the store's chunks,
// a fresh pair of which a batch of a few hundred bytes takes once in
// dozens of batches. It was 2 while each batch allocated its own key
// string and value buffer.
func TestPutBatchCostsAFewAllocations(t *testing.T) {
	s := NewMetaService(store.NewMemStore())
	payload := encodeBatch(nodeBatch(1, 'a'))
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.handlePutBatch(ctx, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("storing an 11-node batch allocates %.0f times, want at most 1", allocs)
	}
}

// TestPutBatchAllOrNothing: on every store, a batch cut short anywhere
// stores no pair, and a later batch that rewrites some keys of an
// earlier one reads back the new values beside the old ones it kept.
func TestPutBatchAllOrNothing(t *testing.T) {
	first, second := nodeBatch(1, 'a'), nodeBatch(2, 'b')
	second = append(second[:6], first[3:8]...)
	for i := 6; i < len(second); i++ {
		second[i].Val = bytes.Repeat([]byte{'c'}, 30+i)
	}
	full := encodeBatch(first)
	for name, st := range map[string]func() store.Store{
		"mem":   func() store.Store { return store.NewMemStore() },
		"plain": func() store.Store { return plainStore{store.NewMemStore()} },
	} {
		t.Run(name, func(t *testing.T) {
			for cut := 0; cut < len(full); cut++ {
				s := NewMetaService(st())
				if _, err := s.handlePutBatch(context.Background(), full[:cut]); err == nil {
					t.Fatalf("a batch cut to %d of %d bytes was accepted", cut, len(full))
				}
				if n := s.Store().Stats().Items; n != 0 {
					t.Fatalf("a batch cut to %d of %d bytes stored %d pairs", cut, len(full), n)
				}
			}
			s := NewMetaService(st())
			for _, kvs := range [][]wire.KV{first, second} {
				if _, err := s.handlePutBatch(context.Background(), encodeBatch(kvs)); err != nil {
					t.Fatal(err)
				}
			}
			if err := storedAs(s.Store(), append(append([]wire.KV{}, first...), second...)); err != nil {
				t.Error(err)
			}
		})
	}
}

// plainStore hides MemStore's BatchPutter: the per-pair Put fallback.
type plainStore struct{ store.Store }

// FuzzMetaPutBatch feeds the put-batch handler arbitrary bytes. It must
// not panic, must allocate no more than a bounded multiple of what it was
// sent (a count from the wire sizes nothing before the payload bounds
// it), and must store every pair the payload decodes to — on both store
// paths — or none.
func FuzzMetaPutBatch(f *testing.F) {
	f.Add(encodeBatch(nodeBatch(1, 'a')))
	f.Add(encodeBatch([]wire.KV{{Key: "k", Val: nil}, {Key: "k", Val: []byte("v")}}))
	f.Add(encodeBatch(nil))
	f.Add([]byte{0, 0x10, 0, 0, 0, 0, 0, 1, 'k'}) // 1M pairs claimed, one sent
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, payload []byte) {
		want, decodes := decodeBatch(payload)
		for _, st := range []store.Store{store.NewMemStore(), plainStore{store.NewMemStore()}} {
			s := NewMetaService(st)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := s.handlePutBatch(context.Background(), payload)
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10+32*uint64(len(payload)) {
				t.Fatalf("a %d-byte payload made the handler allocate %d bytes", len(payload), grew)
			}
			if (err == nil) != decodes {
				t.Fatalf("handler error %v where the payload decodes: %v", err, decodes)
			}
			if err != nil {
				if n := st.Stats().Items; n != 0 {
					t.Fatalf("a failed batch stored %d pairs", n)
				}
				continue
			}
			if err := storedAs(st, want); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// FuzzMetaGetBatch feeds the get-batch handler arbitrary bytes, which it
// cuts keys from without a string per key. It must not panic, must fail
// a payload that does not decode, and must answer one that does byte for
// byte like a reference built from wire.Reader.StringSlice and
// store.Get: the key count, then each key's presence and value.
func FuzzMetaGetBatch(f *testing.F) {
	st := store.NewMemStore()
	for _, kv := range append(nodeBatch(1, 'a'), wire.KV{Key: "empty"}, wire.KV{Val: []byte("the empty key's")}) {
		if err := st.Put(kv.Key, kv.Val); err != nil {
			f.Fatal(err)
		}
	}
	request := func(keys ...string) []byte {
		b := wire.NewBuffer(64)
		b.StringSlice(keys)
		return b.Bytes()
	}
	one := request(nodeBatch(1, 'a')[3].Key, "absent", "empty", "", nodeBatch(1, 'a')[3].Key)
	f.Add(one)
	f.Add(request())
	f.Add(one[:len(one)-3]) // cut short
	s := NewMetaService(st)
	f.Fuzz(func(t *testing.T, payload []byte) {
		r := wire.NewReader(payload)
		keys := r.StringSlice() // the reference decoder
		resp, err := s.handleGetBatch(context.Background(), payload)
		if (err == nil) != (r.Err() == nil) {
			t.Fatalf("handler error %v where the reference decoder's is %v", err, r.Err())
		}
		if err != nil {
			return
		}
		defer resp.Release()
		want := wire.NewBuffer(64)
		want.U32(uint32(len(keys)))
		for _, k := range keys {
			v, err := st.Get(k)
			want.Bool(err == nil)
			want.Bytes32(v)
		}
		if !bytes.Equal(resp.Bytes(), want.Bytes()) {
			t.Fatalf("answer %x, want %x", resp.Bytes(), want.Bytes())
		}
	})
}
