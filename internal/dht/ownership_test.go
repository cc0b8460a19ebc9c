package dht

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"blobseer/internal/rpc"
	"blobseer/internal/store"
	"blobseer/internal/wire"
)

// The whole dht suite runs with released buffers poisoned (see
// internal/rpc/ownership_test.go).
func TestMain(m *testing.M) {
	wire.PoisonReleased(true)
	os.Exit(m.Run())
}

// cutConn dies once, after the first request went out and before any
// response is read: the call in flight fails at the transport and has
// to be sent again on a new connection.
type cutConn struct {
	net.Conn
	once  sync.Once
	wrote chan struct{}
}

func (c *cutConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.once.Do(func() { close(c.wrote) })
	return n, err
}

func (c *cutConn) Read([]byte) (int, error) {
	<-c.wrote
	c.Conn.Close()
	return 0, errors.New("cut after the request was written")
}

// cutFirst wraps dial so that the first connection is a cutConn, and
// counts the connections made.
func cutFirst(dial rpc.Dialer) (rpc.Dialer, *atomic.Int32) {
	dials := new(atomic.Int32)
	return func(addr string) (net.Conn, error) {
		conn, err := dial(addr)
		if dials.Add(1) == 1 && err == nil {
			conn = &cutConn{Conn: conn, wrote: make(chan struct{})}
		}
		return conn, err
	}, dials
}

// gatedStore holds Put at the gate when one is set.
type gatedStore struct {
	store.Store
	gate    atomic.Pointer[chan struct{}]
	entered chan struct{}
}

func (g *gatedStore) Put(key string, val []byte) error {
	if gate := g.gate.Load(); gate != nil {
		g.entered <- struct{}{}
		<-*gate
	}
	return g.Store.Put(key, val)
}

func TestFrameOwnership(t *testing.T) {
	n := rpc.NewInprocNetwork()
	st := &gatedStore{Store: store.NewMemStore(), entered: make(chan struct{}, 1)}
	lis, err := n.Listen("meta")
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(NewMetaService(st).Mux())
	go srv.Serve(lis)
	defer srv.Close()
	ctx := context.Background()
	ring := NewRing([]string{"meta"}, 16)
	newClient := func(dial rpc.Dialer) *Client {
		pool := rpc.NewPool(dial)
		t.Cleanup(pool.Close)
		return NewClient(ring, pool, 1)
	}
	c := newClient(n.Dial)
	key := func(i int) string { return fmt.Sprintf("t1/%d/0/65536", i) }
	val := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 20+i) }
	kvs := make([]wire.KV, 32)
	keys := make([]string, len(kvs))
	for i := range kvs {
		keys[i] = key(i)
		kvs[i] = wire.KV{Key: key(i), Val: val(i)}
	}
	checkBatch := func(t *testing.T, got map[string][]byte) {
		t.Helper()
		if len(got) != len(kvs) {
			t.Fatalf("%d values for %d keys", len(got), len(kvs))
		}
		for i := range kvs {
			if !bytes.Equal(got[key(i)], val(i)) {
				t.Fatalf("value of %s = %x: it aliases a recycled frame", key(i), got[key(i)])
			}
		}
	}

	t.Run("results outlive their frames", func(t *testing.T) {
		if err := c.PutBatch(ctx, kvs); err != nil {
			t.Fatal(err)
		}
		got, err := c.GetBatch(ctx, keys)
		if err != nil {
			t.Fatal(err)
		}
		one, err := c.Get(ctx, key(5))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ { // recycle every frame those results came in
			if _, err := c.Get(ctx, key(i%len(kvs))); err != nil {
				t.Fatal(err)
			}
		}
		checkBatch(t, got)
		if !bytes.Equal(one, val(5)) {
			t.Fatalf("Get result = %x after its frame was recycled", one)
		}
	})

	t.Run("coded error", func(t *testing.T) {
		for i := 0; i < 3; i++ {
			if _, err := c.Get(ctx, "t9/9/9/9"); !errors.Is(err, ErrNotFound) && rpc.CodeOf(err) != CodeNotFound {
				t.Fatalf("Get of a missing key = %v", err)
			}
		}
		got, err := c.GetBatch(ctx, append([]string{"t9/9/9/9"}, keys...))
		if err != nil {
			t.Fatal(err)
		}
		checkBatch(t, got)
	})

	t.Run("retry re-encodes", func(t *testing.T) {
		// A retried batch is encoded again from the pairs: the frame of
		// the first attempt was released, and poisoned, when it was sent.
		dial, dials := cutFirst(n.Dial)
		again := make([]wire.KV, len(kvs))
		for i := range again {
			again[i] = wire.KV{Key: "again/" + key(i), Val: val(i)}
		}
		if err := newClient(dial).PutBatch(ctx, again); err != nil || dials.Load() != 2 {
			t.Fatalf("PutBatch across a cut connection = %v after %d dials, want success on the second", err, dials.Load())
		}
		for i := range again {
			if got, err := st.Get(again[i].Key); err != nil || !bytes.Equal(got, val(i)) {
				t.Fatalf("stored %s = %x, %v", again[i].Key, got, err)
			}
		}
		dial, _ = cutFirst(n.Dial)
		got, err := newClient(dial).GetBatch(ctx, keys)
		if err != nil {
			t.Fatalf("GetBatch across a cut connection = %v", err)
		}
		checkBatch(t, got)
	})

	t.Run("kept values read poison", func(t *testing.T) {
		// A value is valid only until got returns: its frame is released
		// (and poisoned) once the response is decoded.
		var mu sync.Mutex
		var kept [][]byte
		err := c.GetEach(ctx, len(keys),
			func(i int, dst []byte) []byte { return append(dst, keys[i]...) },
			func(i int, val []byte) {
				mu.Lock()
				kept = append(kept, val)
				mu.Unlock()
			})
		if err != nil || len(kept) != len(keys) {
			t.Fatalf("GetEach = %d values, %v", len(kept), err)
		}
		for i, v := range kept {
			if len(v) == 0 || !bytes.Equal(v, bytes.Repeat([]byte{0xdb}, len(v))) {
				t.Fatalf("value %d kept past got reads %x, not poison", i, v)
			}
		}
	})

	for _, cse := range OwnershipCases {
		t.Run(cse.Name, func(t *testing.T) { cse.Run(t, c) })
	}

	t.Run("abandoned call", func(t *testing.T) {
		gate := make(chan struct{})
		st.gate.Store(&gate)
		cctx, cancel := context.WithCancel(ctx)
		done := make(chan error, 1)
		go func() { done <- c.PutBatch(cctx, kvs[:2]) }()
		<-st.entered
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("abandoned PutBatch = %v", err)
		}
		st.gate.Store(nil)
		close(gate) // the late response is drained off the connection
		got, err := c.GetBatch(ctx, keys)
		if err != nil {
			t.Fatal(err)
		}
		checkBatch(t, got)
	})
}

// OwnershipCases are TestFrameOwnership cases that package dht_test
// adds: those of stores built on the client, which import this package.
var OwnershipCases []struct {
	Name string
	Run  func(t *testing.T, c *Client)
}

// TestHashIsFNV1a pins key placement: hash64 must stay the finalized
// FNV-1a sum deployments have placed their metadata by.
func TestHashIsFNV1a(t *testing.T) {
	for _, key := range []string{"", "t1/1/0/65536", "loc/b7/ab/3", "meta-3#17"} {
		h := fnv.New64a()
		h.Write([]byte(key))
		z := h.Sum64()
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		if hash64(key) != z || hash64([]byte(key)) != z {
			t.Errorf("hash64(%q) = %x / %x, want %x", key, hash64(key), hash64([]byte(key)), z)
		}
	}
}

// TestPutEachCutsChunksByBytes: a provider's share of a batch is cut
// into frames of at most maxBatchBytes, and every pair arrives once.
func TestPutEachCutsChunksByBytes(t *testing.T) {
	c, svcs := startDHT(t, 1, 1)
	big := bytes.Repeat([]byte{7}, 3<<20)
	const pairs = 7 // two fit a frame: four frames
	err := c.PutEach(context.Background(), pairs,
		func(i int, dst []byte) []byte { return fmt.Appendf(dst, "big/%d", i) },
		func(i int, b *wire.Buffer) { copy(b.Extend(len(big)), big) })
	if err != nil {
		t.Fatal(err)
	}
	snap := svcs[0].Metrics().Snapshot()
	if h := snap.Histograms["put_batch_size"]; h.Count != 4 || h.Sum != pairs {
		t.Errorf("%d pairs arrived in %d frames, want %d in 4", h.Sum, h.Count, pairs)
	}
	for i := 0; i < pairs; i++ {
		if got, err := svcs[0].Store().Get(fmt.Sprintf("big/%d", i)); err != nil || !bytes.Equal(got, big) {
			t.Fatalf("big/%d: %d bytes, %v", i, len(got), err)
		}
	}
}
