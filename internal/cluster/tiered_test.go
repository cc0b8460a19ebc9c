package cluster_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/cluster"
	"blobseer/internal/store"
)

// demoteAll forces a demotion pass on every provider's tiered store and
// returns the number of blocks moved cold.
func demoteAll(t *testing.T, cl *cluster.BlobSeer) int {
	t.Helper()
	n := 0
	for _, addr := range cl.ProviderAddrs {
		svc := cl.ProviderService(addr)
		if svc == nil {
			continue
		}
		ti, ok := svc.Store().(*store.Tiered)
		if !ok {
			t.Fatalf("provider %s store is %T, want *store.Tiered", addr, svc.Store())
		}
		k, err := ti.DemoteNow()
		if err != nil {
			t.Fatalf("demote %s: %v", addr, err)
		}
		n += k
	}
	return n
}

// TestTieredClusterEndToEnd runs a full deployment on tiered provider
// stores: after every block is demoted to the cold tier, reads still
// return the data (promotion on read) and the hot tiers fill back up.
func TestTieredClusterEndToEnd(t *testing.T) {
	const nBlocks = 6
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 4,
		Replication:   2,
		BlockSize:     int64(blockSize),
		StoreURL:      "tiered://?hot=mem://&cold=mem://",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()
	client := cl.NewClient("")
	m, err := client.Create(ctx, int64(blockSize), 2)
	if err != nil {
		t.Fatal(err)
	}
	payload := writeBlocks(t, cl, m.ID, nBlocks)

	if n := demoteAll(t, cl); n != 2*nBlocks {
		t.Fatalf("demoted %d blocks, want %d", n, 2*nBlocks)
	}
	for _, addr := range cl.ProviderAddrs {
		hot, cold := cl.ProviderService(addr).Store().(*store.Tiered).TierStats()
		if hot.Items != 0 {
			t.Fatalf("provider %s still holds %d hot blocks after demote-all", addr, hot.Items)
		}
		if cold.Items == 0 {
			t.Fatalf("provider %s cold tier empty after demote-all", addr)
		}
	}

	got, err := readBlob(ctx, client, m.ID, blob.NoVersion, 0, int64(len(payload)))
	if err != nil {
		t.Fatalf("read after demotion: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read after demotion returned wrong bytes (%d of %d)", len(got), len(payload))
	}
	// The read promoted blocks back: at least one provider is hot again.
	promoted := 0
	for _, addr := range cl.ProviderAddrs {
		c := cl.ProviderService(addr).Store().(*store.Tiered).Counters()
		promoted += int(c.Promotions)
	}
	if promoted == 0 {
		t.Fatal("reads served but nothing promoted back to hot")
	}
}

// TestRepairIgnoresDemotedBlocks is the false-positive guard: demoting
// every block to the cold tier must not make the repair plane see
// missing replicas — a cold block is present, just slow. After a real
// provider death, repair copies exactly the lost blocks and the data
// stays readable from the tiered survivors.
func TestRepairIgnoresDemotedBlocks(t *testing.T) {
	const nBlocks = 8
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 6,
		Replication:   3,
		BlockSize:     int64(blockSize),
		StoreURL:      "tiered://?hot=mem://&cold=mem://",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()
	client := cl.NewClient("")
	m, err := client.Create(ctx, int64(blockSize), 3)
	if err != nil {
		t.Fatal(err)
	}
	payload := writeBlocks(t, cl, m.ID, nBlocks)

	if n := demoteAll(t, cl); n != 3*nBlocks {
		t.Fatalf("demoted %d blocks, want %d", n, 3*nBlocks)
	}

	// A scan over an all-cold cluster finds nothing to repair and no
	// strays: block reports enumerate both tiers.
	eng := cl.RepairEngine()
	rep, err := eng.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UnderReplicated != 0 || rep.Copies != 0 {
		t.Fatalf("repair re-replicated %d demoted-but-present blocks (%d copies)",
			rep.UnderReplicated, rep.Copies)
	}
	_, orphans, err := eng.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for addr, n := range orphans {
		if n != 0 {
			t.Fatalf("demoted blocks audited as strays on %s: %d", addr, n)
		}
	}

	// Now an actual death: repair restores exactly the lost replicas,
	// sourcing copies from tiered (possibly all-cold) survivors.
	victim := cl.ProviderAddrs[0]
	lost := cl.ProviderService(victim).Store().Stats().Items
	if lost == 0 {
		t.Fatal("victim holds no blocks; test topology broken")
	}
	cl.KillProvider(victim)
	cl.PMService().State().MarkDead(victim)
	rep, err = eng.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if int64(rep.UnderReplicated) != lost || int64(rep.Copies) != lost {
		t.Fatalf("repair touched %d blocks / %d copies, want exactly the %d lost blocks",
			rep.UnderReplicated, rep.Copies, lost)
	}
	live := cl.ProviderAddrs[1:]
	if got := liveItems(cl, live); got != int64(3*nBlocks) {
		t.Fatalf("live replicas after repair = %d, want %d", got, 3*nBlocks)
	}
	got, err := readBlob(ctx, client, m.ID, blob.NoVersion, 0, int64(len(payload)))
	if err != nil {
		t.Fatalf("read after repair: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("read after repair returned wrong bytes")
	}
}

// TestGCReclaimsDemotedBlocks: version GC must delete a hidden
// version's blocks from BOTH tiers — a block demoted before the GC pass
// must not survive in cold storage.
func TestGCReclaimsDemotedBlocks(t *testing.T) {
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 4,
		Replication:   2,
		BlockSize:     int64(blockSize),
		StoreURL:      "tiered://?hot=mem://&cold=mem://",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()
	client := cl.NewClient("")
	m, err := client.Create(ctx, int64(blockSize), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writeBlob(ctx, client, m.ID, 0, bytes.Repeat([]byte{1}, 2*blockSize)); err != nil {
		t.Fatal(err)
	}
	v2, err := writeBlob(ctx, client, m.ID, 0, bytes.Repeat([]byte{2}, 2*blockSize))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := waitBlob(ctx, client, m.ID, v2, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Both versions' blocks go cold, then v1 is collected.
	demoteAll(t, cl)
	if _, err := client.GC(ctx, m.ID, v2); err != nil {
		t.Fatal(err)
	}

	// Exactly v2's replicas remain, and no tier hides a v1 leftover.
	var total int64
	for _, addr := range cl.ProviderAddrs {
		ti := cl.ProviderService(addr).Store().(*store.Tiered)
		hot, cold := ti.TierStats()
		total += ti.Stats().Items
		if hot.Items+cold.Items < ti.Stats().Items {
			t.Fatalf("provider %s tier accounting inconsistent: hot %d cold %d logical %d",
				addr, hot.Items, cold.Items, ti.Stats().Items)
		}
	}
	if want := int64(2 * 2); total != want { // 2 blocks x R=2
		t.Fatalf("blocks after GC = %d, want %d (v1 leftovers in a tier?)", total, want)
	}
}

// TestTieredStatsReachControlPlane drives the heartbeat RPC path and
// checks the per-tier breakdown arrives at the provider manager's
// listing — what bsfsctl providers renders.
func TestTieredStatsReachControlPlane(t *testing.T) {
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders:     2,
		Replication:       1,
		BlockSize:         int64(blockSize),
		StoreURL:          "tiered://?hot=mem://&cold=mem://",
		HeartbeatInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()
	client := cl.NewClient("")
	m, err := client.Create(ctx, int64(blockSize), 1)
	if err != nil {
		t.Fatal(err)
	}
	writeBlocks(t, cl, m.ID, 4)
	demoteAll(t, cl)

	deadline := time.Now().Add(2 * time.Second)
	for {
		infos := cl.PMService().State().List()
		ok := len(infos) > 0
		for _, in := range infos {
			if len(in.Tiers) != 2 || in.Tiers[0].Name != "hot" || in.Tiers[1].Name != "cold" {
				ok = false
				break
			}
			if in.Blocks != in.Tiers[0].Items+in.Tiers[1].Items {
				ok = false // all blocks demoted: logical == hot + cold
				break
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tier breakdown never reached the provider manager: %+v", infos)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
