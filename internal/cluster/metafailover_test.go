package cluster_test

import (
	"bytes"
	"context"
	"testing"

	"blobseer/internal/cluster"
	"blobseer/internal/util"
)

// TestMetadataSurvivesMetaProviderLoss: with DHT replication 2, wiping
// one metadata provider's entire store leaves every tree node readable
// through its replica — the "DHT resilient by construction" claim of
// Section VI-B, exercised through the full client stack.
func TestMetadataSurvivesMetaProviderLoss(t *testing.T) {
	const block = int64(4 * util.KB)
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders:   3,
		MetaProviders:   3,
		MetaReplication: 2,
		BlockSize:       block,
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
	payload := bytes.Repeat([]byte{0x5c}, int(8*block))
	v, err := appendBlob(ctx, c, m.ID, payload)
	if err != nil {
		t.Fatal(err)
	}

	// Wipe one metadata provider completely. Every node it held has a
	// second copy on the ring's next provider.
	if _, err := cl.MetaService(cl.MetaAddrs[0]).Store().DeletePrefix(""); err != nil {
		t.Fatal(err)
	}

	got, err := readBlob(ctx, c, m.ID, v, 0, int64(len(payload)))
	if err != nil {
		t.Fatalf("read after metadata provider loss: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("metadata failover returned wrong data")
	}

	// New writes keep working too (puts go to the surviving replicas;
	// the wiped provider simply gets fresh copies of new nodes).
	if _, err := appendBlob(ctx, c, m.ID, payload[:block]); err != nil {
		t.Fatalf("write after metadata provider loss: %v", err)
	}
}
