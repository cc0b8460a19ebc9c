package dht

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"blobseer/internal/rpc"
	"blobseer/internal/store"
	"blobseer/internal/store/storetest"
	"blobseer/internal/wire"
)

func TestDHTPutBatchReplicates(t *testing.T) {
	c, svcs := startDHT(t, 4, 2)
	ctx := context.Background()
	kvs := make([]wire.KV, 50)
	for i := range kvs {
		kvs[i] = wire.KV{Key: fmt.Sprintf("t1/1/%d/64", i*64), Val: []byte{byte(i)}}
	}
	if err := c.PutBatch(ctx, kvs); err != nil {
		t.Fatal(err)
	}
	// Every key must exist on exactly its 2 replicas.
	for _, kv := range kvs {
		n := 0
		for _, s := range svcs {
			if storetest.Holds(t, s.Store(), kv.Key) {
				n++
			}
		}
		if n != 2 {
			t.Errorf("key %s on %d providers, want 2", kv.Key, n)
		}
		got, err := c.Get(ctx, kv.Key)
		if err != nil || !bytes.Equal(got, kv.Val) {
			t.Errorf("Get(%s) = %q, %v", kv.Key, got, err)
		}
	}
}

func TestDHTGetBatch(t *testing.T) {
	c, _ := startDHT(t, 5, 2)
	ctx := context.Background()
	keys := make([]string, 80)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		if err := c.Put(ctx, keys[i], []byte(keys[i]+"-v")); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.GetBatch(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) {
		t.Fatalf("resolved %d/%d keys", len(got), len(keys))
	}
	for _, k := range keys {
		if string(got[k]) != k+"-v" {
			t.Errorf("GetBatch[%s] = %q", k, got[k])
		}
	}
}

func TestDHTGetBatchAuthoritativeMiss(t *testing.T) {
	c, _ := startDHT(t, 3, 2)
	ctx := context.Background()
	if err := c.Put(ctx, "present", []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetBatch(ctx, []string{"present", "absent-1", "absent-2"})
	if err != nil {
		t.Fatal(err)
	}
	if string(got["present"]) != "v" {
		t.Errorf("present = %q", got["present"])
	}
	if _, ok := got["absent-1"]; ok {
		t.Error("absent key resolved")
	}
	if len(got) != 1 {
		t.Errorf("GetBatch returned %d entries, want 1", len(got))
	}
}

func TestDHTGetBatchSurvivesReplicaLoss(t *testing.T) {
	c, svcs := startDHT(t, 4, 2)
	ctx := context.Background()
	keys := make([]string, 40)
	for i := range keys {
		keys[i] = fmt.Sprintf("node-%d", i)
		if err := c.Put(ctx, keys[i], []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Wipe one provider entirely: every key it was primary for must
	// fall through to its surviving replica in round 2.
	if _, err := svcs[0].Store().DeletePrefix(""); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetBatch(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if v, ok := got[k]; !ok || v[0] != byte(i) {
			t.Errorf("key %s lost after replica wipe (got %v, ok=%v)", k, v, ok)
		}
	}
}

func TestDHTGetBatchDeduplicatesKeys(t *testing.T) {
	c, _ := startDHT(t, 3, 1)
	ctx := context.Background()
	if err := c.Put(ctx, "dup", []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetBatch(ctx, []string{"dup", "dup", "dup"})
	if err != nil {
		t.Fatal(err)
	}
	if string(got["dup"]) != "v" || len(got) != 1 {
		t.Errorf("GetBatch = %v", got)
	}
}

// startDHTDown brings up n providers but leaves the last `down` of them
// unreachable (listed in the ring with no listener behind them).
func startDHTDown(t *testing.T, n, down, replicas int) (*Client, []*MetaService) {
	t.Helper()
	net := rpc.NewInprocNetwork()
	addrs := make([]string, n)
	svcs := make([]*MetaService, 0, n-down)
	for i := 0; i < n; i++ {
		addrs[i] = fmt.Sprintf("meta-%d", i)
		if i >= n-down {
			continue // ring member with no daemon: dial fails
		}
		svc := NewMetaService(store.NewMemStore())
		svcs = append(svcs, svc)
		lis, err := net.Listen(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		srv := rpc.NewServer(svc.Mux())
		go srv.Serve(lis)
		t.Cleanup(func() { srv.Close() })
	}
	pool := rpc.NewPool(net.Dial)
	t.Cleanup(pool.Close)
	return NewClient(NewRing(addrs, 16), pool, replicas), svcs
}

func TestDHTGetMissVsTransportFailure(t *testing.T) {
	// With every replica up, a missing key is an authoritative
	// ErrNotFound. With one replica down, the same lookup must NOT claim
	// not-found: the key might live on the dead provider.
	ctx := context.Background()

	c, _ := startDHT(t, 3, 3)
	_, err := c.Get(ctx, "absent")
	if rpc.CodeOf(err) != CodeNotFound {
		t.Errorf("all-replicas miss: err = %v, want ErrNotFound", err)
	}

	cd, _ := startDHTDown(t, 3, 1, 3)
	_, err = cd.Get(ctx, "absent")
	if err == nil {
		t.Fatal("get with dead replica succeeded")
	}
	if rpc.CodeOf(err) == CodeNotFound {
		t.Errorf("inconclusive miss reported as ErrNotFound: %v", err)
	}

	// GetBatch must apply the same rule.
	_, err = cd.GetBatch(ctx, []string{"absent"})
	if err == nil {
		t.Error("batch get with dead replica treated the miss as authoritative")
	}
}

func TestDHTDeleteParallelStillDeletesEverywhere(t *testing.T) {
	c, svcs := startDHT(t, 5, 3)
	ctx := context.Background()
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("gc-%d", i)
		if err := c.Put(ctx, k, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := c.Delete(ctx, k); err != nil {
			t.Fatal(err)
		}
		for j, s := range svcs {
			if storetest.Holds(t, s.Store(), k) {
				t.Errorf("replica %d still has %s", j, k)
			}
		}
	}
}

func TestDHTBatchChunksLargeBatches(t *testing.T) {
	// More pairs than maxBatchPairs on a single provider must chunk into
	// several frames and still deliver every pair, both directions.
	c, _ := startDHT(t, 1, 1)
	ctx := context.Background()
	n := maxBatchPairs + maxBatchPairs/2
	kvs := make([]wire.KV, n)
	keys := make([]string, n)
	for i := range kvs {
		keys[i] = fmt.Sprintf("k%d", i)
		kvs[i] = wire.KV{Key: keys[i], Val: []byte{byte(i), byte(i >> 8)}}
	}
	if err := c.PutBatch(ctx, kvs); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetBatch(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("resolved %d/%d keys", len(got), n)
	}
	for i, k := range keys {
		if v := got[k]; len(v) != 2 || v[0] != byte(i) || v[1] != byte(i>>8) {
			t.Fatalf("key %s = %v", k, v)
		}
	}
}

func TestDHTPutBatchEmpty(t *testing.T) {
	c, _ := startDHT(t, 2, 1)
	if err := c.PutBatch(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetBatch(context.Background(), nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty GetBatch = %v, %v", got, err)
	}
}

// TestDHTPutBatchConcurrentCalls: concurrent batches, each one's keys,
// placement and sends in a put record the client recycles, land every
// value on its replicas and nowhere mixed with another batch's.
func TestDHTPutBatchConcurrentCalls(t *testing.T) {
	c, _ := startDHT(t, 4, 2)
	ctx := context.Background()
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for round := 0; round < 10; round++ {
				kvs := make([]wire.KV, 1+(g+round)%12)
				for i := range kvs {
					kvs[i] = wire.KV{Key: fmt.Sprintf("t%d/%d/%d/64", g, round, i), Val: []byte(fmt.Sprintf("%d-%d-%d", g, round, i))}
				}
				if err := c.PutBatch(ctx, kvs); err != nil {
					errs <- err
					return
				}
				for _, kv := range kvs {
					if got, err := c.Get(ctx, kv.Key); err != nil || !bytes.Equal(got, kv.Val) {
						errs <- fmt.Errorf("Get(%s) = %q, %v; want %q", kv.Key, got, err, kv.Val)
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
