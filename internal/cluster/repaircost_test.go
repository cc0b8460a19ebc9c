package cluster_test

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/cluster"
	"blobseer/internal/mdtree"
	"blobseer/internal/pmanager"
	"blobseer/internal/provider"
	"blobseer/internal/repair"
	"blobseer/internal/vmanager"
)

// nodeCounter counts the tree nodes read through it.
type nodeCounter struct {
	mdtree.Store
	reads atomic.Int64
}

func (s *nodeCounter) GetBatch(ctx context.Context, ids []mdtree.NodeID) (map[mdtree.NodeID]mdtree.Node, error) {
	s.reads.Add(int64(len(ids)))
	return s.Store.GetBatch(ctx, ids)
}

// metaGets sums the metadata providers' "gets" counters: the keys they
// were asked for, tree nodes and overlay records alike.
func metaGets(cl *cluster.BlobSeer) int64 {
	var n int64
	for _, addr := range cl.MetaAddrs {
		n += cl.MetaService(addr).Metrics().Counter("gets").Value()
	}
	return n
}

// TestScanReadsEachLiveLeafOnce pins what one repair scan of a blob
// built from single-block appends costs the metadata providers: each of
// its 256 live leaves is read once and no inner node is, beside the one
// overlay record each live block is looked up by. A scan that resolved
// every version's whole tree read 66,305 nodes here.
func TestScanReadsEachLiveLeafOnce(t *testing.T) {
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
	meta := &nodeCounter{Store: cl.MetaStore}
	eng := repair.New(repair.Config{
		VM:      vmanager.NewClient(cl.Pool, cl.VMAddrs...),
		PM:      pmanager.NewClient(cl.Pool, cl.PMAddr),
		Prov:    provider.NewClient(cl.Pool),
		Meta:    meta,
		Overlay: cl.Overlay,
	})
	before, t0 := metaGets(cl), time.Now()
	tasks, err := eng.Scan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	nodes, gets := meta.reads.Load(), metaGets(cl)-before
	t.Logf("scan of a %d-version appended blob: %d tree nodes, %d metadata gets, %v", versions, nodes, gets, time.Since(t0))
	if len(tasks) != 0 {
		t.Errorf("a fully replicated blob has %d repair tasks", len(tasks))
	}
	if nodes > versions {
		t.Errorf("one scan read %d tree nodes, want at most %d: one per live leaf", nodes, versions)
	}
	if overlay := gets - nodes; overlay != versions {
		t.Errorf("the metadata providers answered %d gets besides the tree nodes, want %d: one overlay record per live block", overlay, versions)
	}
}
