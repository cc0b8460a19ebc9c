package cluster_test

import (
	"bytes"
	"context"
	"testing"

	"blobseer/internal/cluster"
	"blobseer/internal/util"
)

// TestCachedClientWarmReread drives the full stack — client, version
// manager, data providers, metadata DHT over RPC — with the immutable-
// node cache on: a re-read of the same range must be correct and must
// stop touching the metadata providers (the many-mappers-one-input
// MapReduce pattern).
func TestCachedClientWarmReread(t *testing.T) {
	const block = int64(4 * util.KB)
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 3,
		MetaProviders: 3,
		BlockSize:     block,
		MetaCacheSize: -1, // default-sized NodeCache
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

	read := func() {
		t.Helper()
		got, err := readBlob(ctx, c, m.ID, v, 0, int64(len(payload)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("cached read returned wrong data")
		}
	}
	read()
	warm := c.MetaCacheStats()
	read()
	warmer := c.MetaCacheStats()
	if warmer.Misses != warm.Misses {
		t.Errorf("second read missed the cache %d times, want 0", warmer.Misses-warm.Misses)
	}
	if warmer.Hits <= warm.Hits {
		t.Errorf("second read recorded no cache hits (stats %+v -> %+v)", warm, warmer)
	}
}
