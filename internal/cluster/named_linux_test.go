package cluster_test

import (
	"bytes"
	"context"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/cluster"
	"blobseer/internal/store"
)

// deletingStore is a file:// store that, once armed, deletes the next
// block file it counts for a get by name, after the count and before the
// client opens the file.
type deletingStore struct{ *store.FSStore }

var (
	deleteNext       atomic.Bool
	registerDeleting sync.Once
)

func (s deletingStore) Size(key []byte) (int64, error) {
	n, err := s.FSStore.Size(key)
	if err == nil && deleteNext.CompareAndSwap(true, false) {
		s.FSStore.Delete(string(key))
	}
	return n, err
}

// TestReadByNameFailsOverADeletedFile: on one host, a client reads the
// providers' block files itself; a file deleted between its provider's
// count and the client's open is a missing block, and the read fails
// over to the other replica, as it does from a provider that has none.
func TestReadByNameFailsOverADeletedFile(t *testing.T) {
	registerDeleting.Do(func() {
		store.Register("deleting", func(u *url.URL) (store.Store, error) {
			st, err := store.NewFSStore(u.Path, false)
			return deletingStore{st}, err
		})
	})
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 2,
		Replication:   2,
		BlockSize:     int64(blockSize),
		UseTCP:        true,
		StoreURL:      "deleting://" + t.TempDir() + "/p{n}",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()
	m, err := cl.NewClient("").Create(ctx, int64(blockSize), 2)
	if err != nil {
		t.Fatal(err)
	}
	data := writeBlocks(t, cl, m.ID, 1)

	deleteNext.Store(true)
	got, err := readBlob(ctx, cl.NewClient(""), m.ID, blob.NoVersion, 0, int64(len(data)))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after a block file was deleted under it = %d bytes, %v; want the block", len(got), err)
	}
	var held, named int64
	for _, a := range cl.ProviderAddrs {
		svc := cl.ProviderService(a)
		held += svc.Store().Stats().Items
		named += svc.Metrics().Snapshot().Counters["gets_by_name"]
	}
	if deleteNext.Load() || held != 1 || named < 2 {
		t.Errorf("armed %v, %d replicas left, %d gets by name; want the deletion done, 1 replica and both providers asked by name", deleteNext.Load(), held, named)
	}
}
