package cluster_test

import (
	"bytes"
	"context"
	"testing"

	"blobseer/internal/cluster"
	"blobseer/internal/util"
)

// TestCachedClientWarmReread drives the full stack — client, version
// manager, data providers, metadata DHT over RPC: a fresh client reads
// a range twice, cold and then warm, and both reads must be correct and
// touch the metadata providers not at all — the pin's descriptors name
// every block's replicas (the many-mappers-one-input MapReduce pattern
// pays nothing for metadata). MetaCacheSize is set, and ignored.
func TestCachedClientWarmReread(t *testing.T) {
	const block = int64(4 * util.KB)
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 3,
		MetaProviders: 3,
		BlockSize:     block,
		MetaCacheSize: -1,
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
	payload := bytes.Repeat([]byte{0xb5}, int(16*block))
	v, err := appendBlob(ctx, c, m.ID, payload)
	if err != nil {
		t.Fatal(err)
	}

	reader := cl.NewClient("")
	for _, pass := range []string{"cold", "warm"} {
		before := metaGets(cl)
		got, err := readBlob(ctx, reader, m.ID, v, 0, int64(len(payload)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("%s read returned wrong data", pass)
		}
		if gets := metaGets(cl) - before; gets != 0 {
			t.Errorf("%s read of 16 blocks asked the metadata providers for %d keys, want none", pass, gets)
		}
	}
}
