package cluster_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"blobseer/internal/cluster"
	"blobseer/internal/pmanager"
	"blobseer/internal/provider"
	"blobseer/internal/repair"
	"blobseer/internal/vmanager"
)

// metaGets sums the metadata providers' "gets" counters: the keys they
// were asked for.
func metaGets(cl *cluster.BlobSeer) int64 {
	var n int64
	for _, addr := range cl.MetaAddrs {
		n += cl.MetaService(addr).Metrics().Counter("gets").Value()
	}
	return n
}

// TestScanReadsNoTreeNode pins what one repair scan of a blob built
// from single-block appends costs the metadata providers: nothing — the
// descriptors name every block and its replicas, relocated ones
// included. A scan that looked up a DHT relocation record per live
// block asked 256 keys here, one that fetched each live leaf 256 more,
// and one that resolved every version's whole tree 66,305.
func TestScanReadsNoTreeNode(t *testing.T) {
	const versions = 256
	cl, err := cluster.StartBlobSeer(cluster.Config{BlockSize: int64(blockSize)})
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
	b, err := client.OpenBlob(ctx, m.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < versions; i++ {
		if _, err := b.Append(ctx, bytes.Repeat([]byte{byte(i)}, blockSize)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.WaitPublished(ctx, versions, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	eng := repair.New(repair.Config{
		VM:   vmanager.NewClient(cl.Pool, cl.VMAddrs...),
		PM:   pmanager.NewClient(cl.Pool, cl.PMAddr),
		Prov: provider.NewClient(cl.Pool),
	})
	before, t0 := metaGets(cl), time.Now()
	tasks, err := eng.Scan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gets := metaGets(cl) - before
	t.Logf("scan of a %d-version appended blob: %d metadata gets, %v", versions, gets, time.Since(t0))
	if len(tasks) != 0 {
		t.Errorf("a fully replicated blob has %d repair tasks", len(tasks))
	}
	if gets != 0 {
		t.Errorf("the metadata providers answered %d gets, want none", gets)
	}
}
