package core_test

import (
	"bytes"
	"context"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/cluster"
	"blobseer/internal/mdtree"
	"blobseer/internal/placement"
	"blobseer/internal/util"
)

// TestReadFailsOverToReplica exercises Section VI-B's replication: with
// replication 2, losing the primary copy of every block (simulated by
// deleting the payloads from the primary provider's store) leaves all
// data readable through the surviving replicas.
func TestReadFailsOverToReplica(t *testing.T) {
	const block = int64(4 * util.KB)
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 3,
		MetaProviders: 2,
		BlockSize:     block,
		Replication:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()
	c := cl.NewClient("")
	m, err := c.Create(ctx, block, 2)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, int(6*block))
	v, err := appendBlob(ctx, c, m.ID, payload)
	if err != nil {
		t.Fatal(err)
	}

	// Every block must be on two distinct providers.
	extents, err := mdtree.Resolve(ctx, cl.MetaStore, m, v, int64(len(payload)),
		blob.Range{Off: 0, Len: int64(len(payload))})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range extents {
		if len(e.Block.Providers) != 2 {
			t.Fatalf("block %s has %d replicas, want 2", e.Block.Key, len(e.Block.Providers))
		}
		if e.Block.Providers[0] == e.Block.Providers[1] {
			t.Fatalf("block %s replicated onto the same provider", e.Block.Key)
		}
	}

	// Kill exactly the primary copy of every block (replica copies that
	// happen to live on the same providers stay).
	for _, e := range extents {
		st := cl.ProviderService(e.Block.Providers[0]).Store()
		if err := st.Delete(e.Block.Key.String()); err != nil {
			t.Fatal(err)
		}
	}

	got, err := readBlob(ctx, c, m.ID, v, 0, int64(len(payload)))
	if err != nil {
		t.Fatalf("read after primary loss: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("failover read returned wrong bytes")
	}
}

// TestWriteFallsBackWhenChainBreaks: a provider that errors mid-chain
// (a mixed-version or misbehaving hop) must not fail the write — the
// client falls back to one-hop per-replica puts, and every block still
// ends up byte-identical on its full replica set.
func TestWriteFallsBackWhenChainBreaks(t *testing.T) {
	const block = int64(4 * util.KB)
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 3,
		MetaProviders: 2,
		BlockSize:     block,
		Replication:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()

	// Every provider refuses the frames it must forward; one-hop puts
	// still work.
	for _, addr := range cl.ProviderAddrs {
		cl.ProviderService(addr).BreakChain(true)
	}

	c := cl.NewClient("")
	m, err := c.Create(ctx, block, 2)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x77}, int(4*block))
	v, err := appendBlob(ctx, c, m.ID, payload)
	if err != nil {
		t.Fatalf("write through broken chain did not fall back: %v", err)
	}
	if n := c.ChainFallbacks(); n != 4 {
		t.Errorf("ChainFallbacks = %d, want 4 (one per block)", n)
	}

	// The fallback must have reached the full replica set: losing any
	// one copy of every block leaves the data readable.
	extents, err := mdtree.Resolve(ctx, cl.MetaStore, m, v, int64(len(payload)),
		blob.Range{Off: 0, Len: int64(len(payload))})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range extents {
		if len(e.Block.Providers) != 2 {
			t.Fatalf("block %s has %d replicas, want 2", e.Block.Key, len(e.Block.Providers))
		}
		for _, addr := range e.Block.Providers {
			data, err := cl.ProviderService(addr).Store().Get(e.Block.Key.String())
			if err != nil || !bytes.Equal(data, payload[e.FileOff:e.FileOff+e.Len]) {
				t.Fatalf("replica of block %s on %s differs from the written bytes (err %v)", e.Block.Key, addr, err)
			}
		}
		// Alternate which replica dies so both rotation positions see a
		// failure at some block.
		st := cl.ProviderService(e.Block.Providers[i%2]).Store()
		if err := st.Delete(e.Block.Key.String()); err != nil {
			t.Fatal(err)
		}
	}
	got, err := readBlob(ctx, c, m.ID, v, 0, int64(len(payload)))
	if err != nil {
		t.Fatalf("read after alternating replica loss: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("failover read returned wrong bytes")
	}
}

// TestReadRotationSurvivesAlternatingLoss: with replication 2 and the
// surviving copy alternating between the two replicas block by block,
// every rotation position must fail over to whichever replica still
// holds the block.
func TestReadRotationSurvivesAlternatingLoss(t *testing.T) {
	const block = int64(4 * util.KB)
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 4,
		MetaProviders: 2,
		BlockSize:     block,
		Replication:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()
	c := cl.NewClient("")
	m, err := c.Create(ctx, block, 2)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xCD}, int(8*block))
	v, err := appendBlob(ctx, c, m.ID, payload)
	if err != nil {
		t.Fatal(err)
	}
	extents, err := mdtree.Resolve(ctx, cl.MetaStore, m, v, int64(len(payload)),
		blob.Range{Off: 0, Len: int64(len(payload))})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range extents {
		st := cl.ProviderService(e.Block.Providers[i%2]).Store()
		if err := st.Delete(e.Block.Key.String()); err != nil {
			t.Fatal(err)
		}
	}
	// Repeat the read so the rotation counter cycles through both
	// starting positions for every block.
	for i := 0; i < 4; i++ {
		got, err := readBlob(ctx, c, m.ID, v, 0, int64(len(payload)))
		if err != nil {
			t.Fatalf("read %d after alternating loss: %v", i, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("read %d returned wrong bytes", i)
		}
	}
}

// TestDeadProviderFailsOverPerExtent: at replication 2, a provider killed
// under a multi-block read fails the one call that asked it for all of
// its blocks; each of those blocks is then read from its other replica,
// the read returns the written bytes, and the dead provider is reported
// once — not once per block it held.
func TestDeadProviderFailsOverPerExtent(t *testing.T) {
	const block = int64(4 * util.KB)
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 4,
		MetaProviders: 2,
		BlockSize:     block,
		Replication:   2,
		Strategy:      placement.NewRoundRobin(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()
	c := cl.NewClient("")
	m, err := c.Create(ctx, block, 2)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 16*block)
	for i := range payload {
		payload[i] = byte(i*13 + i/int(block))
	}
	v, err := appendBlob(ctx, c, m.ID, payload)
	if err != nil {
		t.Fatal(err)
	}
	cl.KillProvider(cl.ProviderAddrs[1])
	got, err := readBlob(ctx, c, m.ID, v, 0, int64(len(payload)))
	if err != nil {
		t.Fatalf("read with one of two replicas dead: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("failover read returned wrong bytes")
	}
	if sent, dropped := c.DeadReports(), c.DeadReportsSuppressed(); sent != 1 || dropped != 0 {
		t.Errorf("the dead provider was reported %d times (and %d more suppressed), want once", sent, dropped)
	}
}

// TestReadFailsWhenAllReplicasLost: with every copy gone, the read
// reports the failure instead of fabricating zeros.
func TestReadFailsWhenAllReplicasLost(t *testing.T) {
	const block = int64(4 * util.KB)
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 3,
		BlockSize:     block,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()
	c := cl.NewClient("")
	m, err := c.Create(ctx, block, 1)
	if err != nil {
		t.Fatal(err)
	}
	v, err := appendBlob(ctx, c, m.ID, bytes.Repeat([]byte{1}, int(2*block)))
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range cl.ProviderAddrs {
		if _, err := cl.ProviderService(addr).Store().DeletePrefix(""); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := readBlob(ctx, c, m.ID, v, 0, 2*block); err == nil {
		t.Fatal("read with all replicas lost should fail")
	}
}
