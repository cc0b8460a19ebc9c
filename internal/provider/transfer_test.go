package provider

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/rpc"
	"blobseer/internal/store"
	"blobseer/internal/store/storetest"
	"blobseer/internal/wire"
)

// refusingStore fails its next PutWriter once armed: a provider that
// refuses one frame, then recovers.
type refusingStore struct {
	store.Store
	armed atomic.Bool
}

func (s *refusingStore) PutWriter(key string) (store.BlockWriter, error) {
	if s.armed.CompareAndSwap(true, false) {
		return nil, errors.New("injected refusal")
	}
	return s.Store.PutWriter(key)
}

// TestRePushAfterFailedHopTaken: a push whose last hop refused a frame
// fails, and the same push again — a fresh transfer — is taken and
// stored on every target, for a one-frame and a multi-frame block.
func TestRePushAfterFailedHopTaken(t *testing.T) {
	for _, size := range []int{4 << 10, 3 << 20} {
		flaky := &refusingStore{Store: store.NewMemStore()}
		c, addrs, svcs := providersOver(t, store.NewMemStore(), store.NewMemStore(), flaky)
		ctx := context.Background()
		key := blob.BlockKey{Blob: 9, Nonce: 0x1000}
		data := bytes.Repeat([]byte("re-pushed block "), size/16)
		if err := svcs[0].Store().Put(key.String(), data); err != nil {
			t.Fatal(err)
		}
		flaky.armed.Store(true)
		if err := c.Replicate(ctx, addrs[0], key, addrs[1:]); rpc.CodeOf(err) != CodeChainFail {
			t.Fatalf("%d B: push through a refusing tail = %v, want CodeChainFail", size, err)
		}
		if err := c.Replicate(ctx, addrs[0], key, addrs[1:]); err != nil {
			t.Fatalf("%d B: re-push after the tail recovered: %v", size, err)
		}
		for i, svc := range svcs[1:] {
			if got, err := svc.Store().Get(key.String()); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%d B: target %d holds %d bytes, %v", size, i+1, len(got), err)
			}
		}
	}
}

// frames cuts data into n frames of one block.
func frames(data []byte, n int) []wire.Chunk {
	out := make([]wire.Chunk, n)
	for i := range out {
		out[i] = chunkOf(data, i*len(data)/n, (i+1)*len(data)/n)
	}
	return out
}

// TestReapedTransferFramesRefused: once the reaper aborts a stalled
// upload, the later frames of its transfer are refused, never acked
// into an upload that cannot complete, and nothing commits.
func TestReapedTransferFramesRefused(t *testing.T) {
	shortTTL(t, 30*time.Millisecond)
	c, addrs, svcs := chainCluster(t, 1)
	ctx := context.Background()
	key := blob.BlockKey{Blob: 23, Nonce: 1}
	fs := frames(bytes.Repeat([]byte{4}, 4096), 4)
	const xfer = 0x5ea1
	for _, ck := range fs[:2] {
		if err := c.putChainFrame(ctx, addrs[0], key, xfer, nil, ck); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for svcs[0].counter("stale_upload_reaps") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled upload never reaped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, ck := range fs[2:] {
		err := c.putChainFrame(ctx, addrs[0], key, xfer, nil, ck)
		if rpc.CodeOf(err) != CodeChainFail || !strings.Contains(err.Error(), "reaped") {
			t.Errorf("frame %d after the reap = %v, want a CodeChainFail naming the reap", i+2, err)
		}
	}
	if storetest.Holds(t, svcs[0].Store(), key.String()) || svcs[0].counter("chain_commits") != 0 {
		t.Error("a reaped transfer committed its block")
	}
	if n := svcs[0].inflight(); n != 0 {
		t.Errorf("uploads_inflight = %d after the reaped transfer's last frames", n)
	}
}

// TestFailedTransferStragglerRefused: a frame of a transfer that failed
// here is refused outright, starting no upload that would pin a buffer
// until the reaper.
func TestFailedTransferStragglerRefused(t *testing.T) {
	c, addrs, svcs := chainCluster(t, 1)
	ctx := context.Background()
	key := blob.BlockKey{Blob: 24, Nonce: 1}
	fs := frames(bytes.Repeat([]byte{6}, 4096), 4)
	const xfer = 0xfa11
	chain := []string{"nowhere"} // the forward fails: the transfer fails here
	if err := c.putChainFrame(ctx, addrs[0], key, xfer, chain, fs[0]); rpc.CodeOf(err) != CodeChainFail {
		t.Fatalf("frame through an unreachable hop = %v, want CodeChainFail", err)
	}
	for i, ck := range fs[1:] {
		if err := c.putChainFrame(ctx, addrs[0], key, xfer, chain, ck); rpc.CodeOf(err) != CodeChainFail {
			t.Errorf("straggler frame %d = %v, want CodeChainFail", i+1, err)
		}
		if n := svcs[0].inflight(); n != 0 {
			t.Fatalf("uploads_inflight = %d after straggler frame %d", n, i+1)
		}
	}
	if storetest.Holds(t, svcs[0].Store(), key.String()) {
		t.Error("a failed transfer committed its block")
	}
}

// TestNewTransferSupersedesLiveUpload: a new transfer of a key whose
// upload is still partial takes the key over and commits the block once,
// with its own bytes; the old transfer's later frames are refused.
func TestNewTransferSupersedesLiveUpload(t *testing.T) {
	c, addrs, svcs := chainCluster(t, 1)
	ctx := context.Background()
	key := blob.BlockKey{Blob: 25, Nonce: 1}
	data := bytes.Repeat([]byte("superseded "), 400)
	fs := frames(data, 4)
	const old, fresh = 0x01d, 0xf5e
	if err := c.putChainFrame(ctx, addrs[0], key, old, nil, fs[0]); err != nil {
		t.Fatal(err)
	}
	for i, ck := range fs {
		if err := c.putChainFrame(ctx, addrs[0], key, fresh, nil, ck); err != nil {
			t.Fatalf("frame %d of the new transfer: %v", i, err)
		}
	}
	if got, err := svcs[0].Store().Get(key.String()); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("stored %d bytes, %v; want the block's %d", len(got), err, len(data))
	}
	for i, ck := range fs[1:] {
		if err := c.putChainFrame(ctx, addrs[0], key, old, nil, ck); rpc.CodeOf(err) != CodeChainFail {
			t.Errorf("frame %d of the superseded transfer = %v, want CodeChainFail", i+1, err)
		}
	}
	if n := svcs[0].counter("chain_commits"); n != 1 {
		t.Errorf("chain_commits = %d, want the one block once", n)
	}
	if n := svcs[0].inflight(); n != 0 {
		t.Errorf("uploads_inflight = %d after the block committed", n)
	}
}

// chainedPayload encodes one mPutChained request.
func chainedPayload(key blob.BlockKey, xfer uint64, chain []string, ck wire.Chunk) []byte {
	b := wire.NewBuffer(64)
	encodeKey(b, key)
	b.U64(xfer)
	b.StringSlice(chain)
	b.Chunk(ck)
	return append(b.Bytes(), b.Tail()...)
}

// FuzzPutChainedFrames feeds a sequence of arbitrary requests, each a
// u16 length and that many bytes, to the chained-put handler of a
// provider with no forwarder. It must never panic, and a block is
// stored only with the bytes of one transfer whose acked frames
// delivered every one of them.
func FuzzPutChainedFrames(f *testing.F) {
	seq := func(payloads ...[]byte) []byte {
		var b []byte
		for _, p := range payloads {
			b = append(b, byte(len(p)), byte(len(p)>>8))
			b = append(b, p...)
		}
		return b
	}
	k, data := blob.BlockKey{Blob: 1, Nonce: 2}, []byte("0123456789abcdef")
	fs := frames(data, 4)
	f.Add(seq(chainedPayload(k, 1, nil, fs[0]), chainedPayload(k, 1, nil, fs[2]), chainedPayload(k, 1, nil, fs[1]), chainedPayload(k, 1, nil, fs[3])))
	f.Add(seq(chainedPayload(k, 1, nil, fs[0]), chainedPayload(k, 1, nil, fs[0]), chainedPayload(k, 1, nil, fs[1]), chainedPayload(k, 1, nil, fs[2])))
	f.Add(seq(chainedPayload(k, 1, nil, fs[0]), chainedPayload(k, 2, nil, fs[1]), chainedPayload(k, 1, nil, fs[2]), chainedPayload(k, 2, nil, fs[3])))
	f.Add(seq(chainedPayload(k, 3, []string{"next"}, fs[0]), chainedPayload(k, 3, nil, chunkOf(data, 0, 16))))
	f.Add(seq(chainedPayload(k, 4, nil, wire.Chunk{Off: 12, Total: 8, Data: data[:4]})))
	f.Fuzz(func(t *testing.T, in []byte) {
		svc := NewService(store.NewMemStore())
		defer func() {
			svc.mu.Lock()
			if svc.reaper != nil {
				svc.reaper.Stop()
			}
			svc.mu.Unlock()
		}()
		type transfer struct {
			key  blob.BlockKey
			xfer uint64
		}
		type delivered struct {
			total int64
			bytes map[int64]byte
		}
		acked := map[transfer]*delivered{}
		for len(in) >= 2 {
			n := min(int(in[0])|int(in[1])<<8, len(in)-2)
			payload := in[2 : 2+n]
			in = in[2+n:]
			if _, err := svc.handlePutChained(context.Background(), payload); err != nil {
				continue
			}
			r := wire.NewReader(payload)
			tr := transfer{key: decodeKey(r), xfer: r.U64()}
			r.StringSlice()
			ck := r.Chunk()
			if r.Err() != nil {
				t.Fatalf("acked a request that does not decode: %v", r.Err())
			}
			d := acked[tr]
			if d == nil {
				d = &delivered{total: ck.Total, bytes: map[int64]byte{}}
				acked[tr] = d
			}
			if d.total != ck.Total {
				t.Fatalf("transfer %x acked frames of totals %d and %d", tr.xfer, d.total, ck.Total)
			}
			for i, c := range ck.Data {
				if _, dup := d.bytes[ck.Off+int64(i)]; dup {
					t.Fatalf("transfer %x acked byte %d twice", tr.xfer, ck.Off+int64(i))
				}
				d.bytes[ck.Off+int64(i)] = c
			}
		}
		keys, err := svc.Store().Keys("")
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range keys {
			got, err := svc.Store().Get(name)
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for tr, d := range acked {
				if tr.key.String() != name || int64(len(got)) != d.total || len(d.bytes) != len(got) {
					continue
				}
				found = true
				for off, c := range d.bytes {
					found = found && got[off] == c
				}
				if found {
					break
				}
			}
			if !found {
				t.Fatalf("stored %s (%d bytes) is no transfer's whole delivery", name, len(got))
			}
		}
	})
}
