package dht

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"blobseer/internal/rpc"
	"blobseer/internal/store"
	"blobseer/internal/store/storetest"
	"blobseer/internal/wire"
)

func TestRingLookupDeterministic(t *testing.T) {
	nodes := []string{"m1", "m2", "m3", "m4", "m5"}
	r1 := NewRing(nodes, 32)
	r2 := NewRing(nodes, 32)
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%d", i)
		a, b := r1.Lookup(k, 2), r2.Lookup(k, 2)
		if len(a) != 2 || a[0] != b[0] || a[1] != b[1] {
			t.Fatalf("lookup not deterministic for %s: %v vs %v", k, a, b)
		}
	}
}

func TestRingReplicasDistinct(t *testing.T) {
	r := NewRing([]string{"a", "b", "c"}, 16)
	for i := 0; i < 50; i++ {
		got := r.Lookup(fmt.Sprintf("k%d", i), 3)
		if len(got) != 3 {
			t.Fatalf("lookup returned %d nodes", len(got))
		}
		seen := map[string]bool{}
		for _, n := range got {
			if seen[n] {
				t.Fatalf("duplicate replica: %v", got)
			}
			seen[n] = true
		}
	}
}

func TestRingClampsReplicas(t *testing.T) {
	r := NewRing([]string{"a", "b"}, 8)
	if got := r.Lookup("k", 5); len(got) != 2 {
		t.Errorf("lookup = %v", got)
	}
	if got := r.Lookup("k", 0); len(got) != 1 {
		t.Errorf("lookup with 0 = %v", got)
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(nil, 8)
	if got := r.Lookup("k", 1); got != nil {
		t.Errorf("empty ring lookup = %v", got)
	}
	if r.Len() != 0 {
		t.Error("empty ring Len != 0")
	}
}

// TestClientOnEmptyRingFails: with no metadata provider to ask, every
// call fails alike — a delete included, which GC would otherwise count
// as a node freed.
func TestClientOnEmptyRingFails(t *testing.T) {
	pool := rpc.NewPool(rpc.NewInprocNetwork().Dial)
	t.Cleanup(pool.Close)
	c, ctx := NewClient(NewRing(nil, 8), pool, 2), context.Background()
	if err := c.put(ctx, "k", []byte("v")); err == nil {
		t.Error("put on an empty ring succeeded")
	}
	if _, err := c.get(ctx, "k"); err == nil || errors.Is(err, errNotFound) {
		t.Errorf("get on an empty ring = %v, want a failure that is not a miss", err)
	}
	if err := c.Delete(ctx, "k"); err == nil {
		t.Error("delete on an empty ring succeeded")
	}
}

func TestRingDistribution(t *testing.T) {
	// With 20 metadata providers (the paper's microbenchmark setup),
	// keys should spread without any provider being starved or owning
	// a grossly outsized share.
	nodes := make([]string, 20)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("meta-%d", i)
	}
	r := NewRing(nodes, DefaultVnodes)
	counts := map[string]int{}
	const keys = 20000
	for i := 0; i < keys; i++ {
		counts[r.Lookup(fmt.Sprintf("tree-node-%d", i), 1)[0]]++
	}
	want := keys / len(nodes)
	for n, c := range counts {
		if c < want/3 || c > want*3 {
			t.Errorf("node %s owns %d keys (ideal %d)", n, c, want)
		}
	}
	if len(counts) != len(nodes) {
		t.Errorf("only %d/%d nodes own keys", len(counts), len(nodes))
	}
}

func TestRingLookupStableUnderKeyProperty(t *testing.T) {
	r := NewRing([]string{"a", "b", "c", "d"}, 16)
	f := func(key string) bool {
		x := r.Lookup(key, 2)
		y := r.Lookup(key, 2)
		return len(x) == 2 && x[0] == y[0] && x[1] == y[1] && x[0] != x[1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// startDHT brings up n metadata providers on an inproc network.
func startDHT(t *testing.T, n, replicas int) (*Client, []*MetaService) {
	t.Helper()
	net := rpc.NewInprocNetwork()
	addrs := make([]string, n)
	svcs := make([]*MetaService, n)
	for i := 0; i < n; i++ {
		addrs[i] = fmt.Sprintf("meta-%d", i)
		svcs[i] = NewMetaService(store.NewMemStore())
		lis, err := net.Listen(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		srv := rpc.NewServer(svcs[i].Mux())
		go srv.Serve(lis)
		t.Cleanup(func() { srv.Close() })
	}
	pool := rpc.NewPool(net.Dial)
	t.Cleanup(pool.Close)
	return NewClient(NewRing(addrs, 16), pool, replicas), svcs
}

func TestDHTPutGet(t *testing.T) {
	c, _ := startDHT(t, 5, 2)
	ctx := context.Background()
	if err := c.put(ctx, "node/1/0/64", []byte("leaf")); err != nil {
		t.Fatal(err)
	}
	v, err := c.get(ctx, "node/1/0/64")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "leaf" {
		t.Errorf("Get = %q", v)
	}
}

func TestDHTMissingKey(t *testing.T) {
	c, _ := startDHT(t, 3, 2)
	_, err := c.get(context.Background(), "absent")
	if err == nil {
		t.Fatal("get of absent key succeeded")
	}
	if !errors.Is(err, errNotFound) {
		t.Errorf("get of absent key = %v, want errNotFound", err)
	}
}

func TestDHTReplication(t *testing.T) {
	c, svcs := startDHT(t, 4, 3)
	ctx := context.Background()
	if err := c.put(ctx, "replicated-key", []byte("v")); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, s := range svcs {
		if storetest.Holds(t, s.store, "replicated-key") {
			n++
		}
	}
	if n != 3 {
		t.Errorf("key on %d providers, want 3", n)
	}
}

func TestDHTReadSurvivesReplicaLoss(t *testing.T) {
	c, svcs := startDHT(t, 4, 3)
	ctx := context.Background()
	if err := c.put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Wipe the primary replica's store: reads must fall through to the
	// surviving replicas.
	primary := c.ring.Lookup("k", 1)[0]
	for i, s := range svcs {
		if fmt.Sprintf("meta-%d", i) == primary {
			s.store.Delete("k")
		}
	}
	v, err := c.get(ctx, "k")
	if err != nil || string(v) != "v" {
		t.Fatalf("Get after primary loss = %q, %v", v, err)
	}
}

func TestDHTDelete(t *testing.T) {
	c, svcs := startDHT(t, 3, 3)
	ctx := context.Background()
	c.put(ctx, "k", []byte("v"))
	if err := c.Delete(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	for i, s := range svcs {
		if storetest.Holds(t, s.store, "k") {
			t.Errorf("replica %d still has key", i)
		}
	}
}

func TestDHTManyKeysSpread(t *testing.T) {
	c, svcs := startDHT(t, 5, 1)
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		if err := c.put(ctx, fmt.Sprintf("key-%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range svcs {
		if st := s.store.Stats(); st.Items == 0 {
			t.Errorf("metadata provider %d stores nothing", i)
		}
	}
}

// put stores key on every replica in parallel, a one-key PutEach; it
// fails if any replica write fails.
func (c *Client) put(ctx context.Context, key string, val []byte) error {
	return c.PutBatch(ctx, []wire.KV{{Key: key, Val: val}})
}

// errNotFound is get's miss: a key absent from every queried replica.
var errNotFound = errors.New("dht: key not found")

// get fetches key from the first answering replica, a one-key GetEach.
// It returns errNotFound only when every replica authoritatively
// reported the key missing; if any replica was unreachable the miss is
// inconclusive and the transport error is returned instead.
func (c *Client) get(ctx context.Context, key string) ([]byte, error) {
	var val []byte // non-nil once found: the frame v arrives in is recycled
	err := c.GetEach(ctx, 1,
		func(_ int, dst []byte) []byte { return append(dst, key...) },
		func(_ int, v []byte) { val = append([]byte{}, v...) })
	if err == nil && val == nil {
		err = errNotFound
	}
	if err != nil {
		return nil, err
	}
	return val, nil
}
