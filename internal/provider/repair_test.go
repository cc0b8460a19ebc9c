package provider

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/rpc"
	"blobseer/internal/store"
	"blobseer/internal/store/storetest"
)

// startProviders brings up n chained-capable providers on one inproc
// network sharing a pool (so chains and replication pushes can reach
// each other).
func startProviders(t *testing.T, n int) (*Client, []string, []*Service) {
	t.Helper()
	stores := make([]store.Store, n)
	for i := range stores {
		stores[i] = store.NewMemStore()
	}
	return providersOver(t, stores...)
}

// providersOver is startProviders over the given stores, one provider
// each.
func providersOver(t *testing.T, stores ...store.Store) (*Client, []string, []*Service) {
	t.Helper()
	net := rpc.NewInprocNetwork()
	pool := rpc.NewPool(net.Dial)
	t.Cleanup(pool.Close)
	addrs := make([]string, len(stores))
	svcs := make([]*Service, len(stores))
	for i, st := range stores {
		addrs[i] = fmt.Sprintf("prov-%d", i)
		svcs[i] = NewService(st, WithForwarder(pool))
		lis, err := net.Listen(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		srv := rpc.NewServer(svcs[i].Mux())
		go srv.Serve(lis)
		t.Cleanup(func() { srv.Close() })
	}
	return NewClient(pool), addrs, svcs
}

func TestBlockReport(t *testing.T) {
	c, addr, svc := startProvider(t)
	ctx := context.Background()
	keys := []blob.BlockKey{
		{Blob: 1, Nonce: 0xa, Seq: 0},
		{Blob: 1, Nonce: 0xa, Seq: 1},
		{Blob: 2, Nonce: 0xb, Seq: 0},
	}
	for _, k := range keys {
		if err := c.Put(ctx, addr, k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Foreign (non-block) entries in the store are skipped, not mangled.
	if err := svc.Store().Put("t1/2/0/4", []byte("tree node")); err != nil {
		t.Fatal(err)
	}

	got, err := c.BlockReport(ctx, addr, "")
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(got, func(i, j int) bool { return got[i].String() < got[j].String() })
	if len(got) != len(keys) {
		t.Fatalf("BlockReport = %v, want the %d stored blocks", got, len(keys))
	}
	for i, k := range keys {
		if got[i] != k {
			t.Errorf("report[%d] = %v, want %v", i, got[i], k)
		}
	}
	// Prefix-scoped report: one write's blocks only.
	scoped, err := c.BlockReport(ctx, addr, blob.BlockKey{Blob: 1, Nonce: 0xa}.WritePrefix())
	if err != nil || len(scoped) != 2 {
		t.Errorf("scoped BlockReport = %v, %v; want 2 keys", scoped, err)
	}
}

func TestReplicatePushesOverChain(t *testing.T) {
	c, addrs, svcs := startProviders(t, 4)
	ctx := context.Background()
	key := blob.BlockKey{Blob: 3, Nonce: 0xcc, Seq: 0}
	data := bytes.Repeat([]byte("replica!"), 512)
	if err := c.Put(ctx, addrs[0], key, data); err != nil {
		t.Fatal(err)
	}

	// Push from 0 to 2 and 3 in one chained call.
	if err := c.Replicate(ctx, addrs[0], key, []string{addrs[2], addrs[3]}); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{2, 3} {
		v, err := svcs[i].Store().Get(key.String())
		if err != nil || !bytes.Equal(v, data) {
			t.Errorf("target %d missing replica: %v", i, err)
		}
	}
	if storetest.Holds(t, svcs[1].Store(), key.String()) {
		t.Error("untargeted provider received the block")
	}

	// Replicating an absent block is a coded not-found, not a transport
	// failure (the repair engine must not mark the source dead).
	err := c.Replicate(ctx, addrs[1], key, []string{addrs[2]})
	if rpc.CodeOf(err) != CodeNotFound {
		t.Errorf("Replicate of absent block = %v, want CodeNotFound", err)
	}
	if rpc.TransportFailure(err) {
		t.Error("not-found misclassified as transport failure")
	}
}

func TestReplicateUnsupportedWithoutForwarder(t *testing.T) {
	// startProvider's service has no forwarder, so it cannot push: the
	// push fails with the one chain failure code.
	c, addr, _ := startProvider(t)
	ctx := context.Background()
	key := blob.BlockKey{Blob: 1, Nonce: 1, Seq: 0}
	if err := c.Put(ctx, addr, key, []byte("x")); err != nil {
		t.Fatal(err)
	}
	err := c.Replicate(ctx, addr, key, []string{"elsewhere"})
	if rpc.CodeOf(err) != CodeChainFail {
		t.Errorf("Replicate without forwarder = %v, want CodeChainFail", err)
	}
}
