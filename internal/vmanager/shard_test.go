package vmanager

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/rpc"
	"blobseer/internal/wal"
)

// startShardedVM deploys K shard services on an inproc network and
// returns a Client over them (addresses in shard order) plus the
// services, for their per-shard op counters.
func startShardedVM(t *testing.T, k int) (*Client, []*Service) {
	t.Helper()
	n := rpc.NewInprocNetwork()
	addrs := make([]string, k)
	svcs := make([]*Service, k)
	for i := 0; i < k; i++ {
		svc := NewService(NewState(&ShardInfo{Index: i, Count: k}))
		svcs[i] = svc
		addrs[i] = fmt.Sprintf("vmanager-%d", i)
		lis, err := n.Listen(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		srv := rpc.NewServer(svc.Mux())
		go srv.Serve(lis)
		t.Cleanup(func() { srv.Close() })
	}
	pool := rpc.NewPool(n.Dial)
	t.Cleanup(pool.Close)
	return NewClient(pool, addrs...), svcs
}

func TestShardOf(t *testing.T) {
	if got := ShardOf(7, 0); got != 0 {
		t.Errorf("ShardOf(7, 0) = %d, want 0", got)
	}
	if got := ShardOf(7, 1); got != 0 {
		t.Errorf("ShardOf(7, 1) = %d, want 0", got)
	}
	for id := blob.ID(1); id < 100; id++ {
		if got, want := ShardOf(id, 4), int(uint64(id)%4); got != want {
			t.Fatalf("ShardOf(%d, 4) = %d, want %d", id, got, want)
		}
	}
}

// TestShardStateMintsOwnedIDs pins the ID encoding: shard k of K mints
// only IDs ≡ k (mod K), never 0, advancing by stride K.
func TestShardStateMintsOwnedIDs(t *testing.T) {
	for _, tc := range []struct {
		k, n int
		want []blob.ID
	}{
		{0, 1, []blob.ID{1, 2, 3}},
		{0, 4, []blob.ID{4, 8, 12}}, // ID 0 means "no blob", so shard 0 starts at K
		{1, 4, []blob.ID{1, 5, 9}},
		{3, 4, []blob.ID{3, 7, 11}},
	} {
		s := NewState(&ShardInfo{Index: tc.k, Count: tc.n})
		for i, want := range tc.want {
			m, err := s.CreateBlob(B, 1)
			if err != nil {
				t.Fatal(err)
			}
			if m.ID != want {
				t.Errorf("shard %d/%d create #%d: id %d, want %d", tc.k, tc.n, i, m.ID, want)
			}
			if !s.Owns(m.ID) {
				t.Errorf("shard %d/%d does not own its own mint %d", tc.k, tc.n, m.ID)
			}
		}
	}
}

// TestShardRecoverRoundTrip replays a shard's WAL into a fresh state
// and checks both the publication line and the minting cursor survive
// with the shard stride intact.
func TestShardRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	si := ShardInfo{Index: 2, Count: 4}
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Recover(log, &si)
	if err != nil {
		t.Fatal(err)
	}
	m, err := st.CreateBlob(B, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != 2 {
		t.Fatalf("first mint on shard 2/4 = %d, want 2", m.ID)
	}
	a, err := st.AssignVersion(m.ID, blob.KindAppend, 0, B, 0x1, blob.NoVersion)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(m.ID, a.Version); err != nil {
		t.Fatal(err)
	}
	if err := st.log.Close(); err != nil {
		t.Fatal(err)
	}

	log2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	re, err := Recover(log2, &si)
	if err != nil {
		t.Fatal(err)
	}
	defer re.log.Close()
	if got := re.Shard(); got != si {
		t.Fatalf("recovered shard info %+v, want %+v", got, si)
	}
	if v, _, err := latest(re, m.ID); err != nil || v != a.Version {
		t.Fatalf("recovered Latest = %d, %v; want %d", v, err, a.Version)
	}
	// The minting cursor must resume on the shard's stride.
	m2, err := re.CreateBlob(B, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m2.ID != 6 {
		t.Fatalf("post-recovery mint = %d, want 6 (2 + stride 4)", m2.ID)
	}
}

// TestShardRecoverRejectsForeignLog pins the guard: replaying a WAL
// into a shard that does not own its blobs fails loudly instead of
// silently splitting a blob's history across shards.
func TestShardRecoverRejectsForeignLog(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Recover(log, &ShardInfo{Index: 1, Count: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.CreateBlob(B, 1); err != nil { // mints ID 1
		t.Fatal(err)
	}
	if err := st.log.Close(); err != nil {
		t.Fatal(err)
	}

	log2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if _, err := Recover(log2, &ShardInfo{Index: 3, Count: 4}); err == nil ||
		!strings.Contains(err.Error(), "shard") {
		t.Fatalf("foreign-shard replay err = %v, want shard-ownership error", err)
	}
}

// TestClientCreateBlobRace: N goroutines minting blobs through one
// Client concurrently must get globally unique IDs, each owned by the
// shard the routing rule predicts — for the single-address client
// (K=1, the historical 1, 2, 3, ... sequence) and a sharded one alike.
// Run with -race.
func TestClientCreateBlobRace(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("K=%d", shards), func(t *testing.T) {
			c, _ := startShardedVM(t, shards)
			if len(c.addrs) != shards {
				t.Fatalf("client has %d shards, want %d", len(c.addrs), shards)
			}
			ctx := context.Background()

			const goroutines = 8
			const perG = 25
			var mu sync.Mutex
			ids := make(map[blob.ID]bool)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						m, err := c.CreateBlob(ctx, B, 1)
						if err != nil {
							t.Errorf("create: %v", err)
							return
						}
						mu.Lock()
						if ids[m.ID] {
							t.Errorf("duplicate blob id %d", m.ID)
						}
						ids[m.ID] = true
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
			if len(ids) != goroutines*perG {
				t.Fatalf("minted %d unique ids, want %d", len(ids), goroutines*perG)
			}
			// Every ID must resolve through the shard the routing rule
			// picks: Latest goes to addrs[ShardOf(id, K)], and only the
			// minting shard knows it.
			for id := range ids {
				if _, err := c.Latest(ctx, id); err != nil {
					t.Fatalf("blob %d not found on predicted shard %d: %v", id, ShardOf(id, shards), err)
				}
			}
			// The round-robin spread: every shard minted its even share.
			perShard := make([]int, shards)
			for id := range ids {
				perShard[ShardOf(id, shards)]++
			}
			for k, n := range perShard {
				if n != goroutines*perG/shards {
					t.Errorf("shard %d minted %d, want an even share: %v", k, n, perShard)
				}
			}
			// ListBlobs visits all shards, sorted and complete; K=1 mints
			// the unsharded 1..N sequence.
			all, err := c.ListBlobs(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(all) != len(ids) {
				t.Fatalf("ListBlobs merged %d ids, want %d", len(all), len(ids))
			}
			if !sort.SliceIsSorted(all, func(i, j int) bool { return all[i] < all[j] }) {
				t.Error("merged ListBlobs not sorted")
			}
			if shards == 1 && (all[0] != 1 || all[len(all)-1] != blob.ID(len(all))) {
				t.Errorf("K=1 minted %d..%d, want 1..%d", all[0], all[len(all)-1], len(all))
			}
		})
	}
}

// TestClientRoutesPerBlobOps drives a full publish through the Client
// and checks every per-blob call lands on ShardOf(id, K) and nowhere
// else (per-shard op counters), plus cross-shard isolation: an unknown
// blob owned by a shard errors there with the usual sentinel.
func TestClientRoutesPerBlobOps(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("K=%d", shards), func(t *testing.T) {
			c, svcs := startShardedVM(t, shards)
			ctx := context.Background()
			m, err := c.CreateBlob(ctx, B, 1)
			if err != nil {
				t.Fatal(err)
			}
			a, err := c.AssignVersion(ctx, m.ID, blob.KindAppend, 0, B, 0x1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Commit(ctx, m.ID, a.Version); err != nil {
				t.Fatal(err)
			}
			h, err := c.Latest(ctx, m.ID)
			if err != nil || h.Published != a.Version || h.Size != B {
				t.Fatalf("Latest = %+v, %v", h, err)
			}
			if ds, _, err := readHistory(ctx, c, m.ID, 0); err != nil || len(ds) != 1 || ds[0].SizeAfter != B {
				t.Fatalf("history = %+v, %v", ds, err)
			}
			if h, err := c.WaitPublished(ctx, m.ID, 0, a.Version, 0, nil); err != nil || h.Published != a.Version {
				t.Fatalf("WaitPublished = %+v, %v", h, err)
			}
			// An ID the owning shard never minted: routed there, rejected there.
			missing := m.ID + blob.ID(shards*10) // same shard, unknown blob
			if _, err := c.Latest(ctx, missing); !errors.Is(err, ErrUnknownBlob) {
				t.Fatalf("Latest(missing) err = %v, want ErrUnknownBlob", err)
			}
			// The owner saw exactly this blob's traffic; every other
			// shard saw none of it.
			owner := ShardOf(m.ID, shards)
			for k, svc := range svcs {
				want := OpCounts{}
				if k == owner {
					want = OpCounts{Create: 1, Assign: 1, Commit: 1, Latest: 3, Wait: 1}
				}
				if ops := svc.Ops(); ops != want {
					t.Errorf("shard %d ops = %+v, want %+v (owner %d)", k, ops, want, owner)
				}
			}
		})
	}
}

// TestRetiredMethodsUnknown: methods 2 (GetMeta), 7 (VersionInfo) and
// 12 (PrunedBelow) are retired, since the head of every Latest reply
// carries what they answered, and so is 8 (History), since Latest pages
// the history, and 13 (WAL status) and 14 (forced snapshot), since the
// log compacts itself; no later method reuses their numbers: a caller
// built before the retirement gets "unknown method", never another
// operation's answer. Ten methods are served: Relocate and Replicas
// came after the retirements, as 15 and 16.
func TestRetiredMethodsUnknown(t *testing.T) {
	c, _ := startShardedVM(t, 1)
	if mRelocate != 15 || mReplicas != 16 {
		t.Fatalf("Relocate and Replicas are methods %d and %d, want 15 and 16", mRelocate, mReplicas)
	}
	retired := []uint16{2, 7, 8, 12, 13, 14}
	served := 0
	for m := uint16(1); m <= 20; m++ {
		err := c.call(context.Background(), 0, m, 0, nil, nil)
		unknown := err != nil && strings.Contains(err.Error(), fmt.Sprintf("unknown method %d", m))
		if !unknown {
			served++
		}
		if slices.Contains(retired, m) && !unknown {
			t.Errorf("retired method %d answered %v, want unknown method", m, err)
		}
	}
	if served != 10 {
		t.Errorf("%d methods are served, want 10", served)
	}
}
