package cluster_test

import (
	"os"
	"path/filepath"
	"testing"

	"blobseer/internal/cluster"
	"blobseer/internal/store/storetest"
)

// TestStoreURLExpandsPerProvider: "{n}" in Config.StoreURL becomes the
// provider index, so one template gives every provider its own
// directory; a block put through provider 0 is invisible to provider 1.
func TestStoreURLExpandsPerProvider(t *testing.T) {
	dir := t.TempDir()
	cl, err := cluster.StartBlobSeer(cluster.Config{DataProviders: 2, StoreURL: "file://" + dir + "/p{n}"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	for _, sub := range []string{"p0", "p1"} {
		if _, err := os.Stat(filepath.Join(dir, sub)); err != nil {
			t.Errorf("provider directory %s: %v", sub, err)
		}
	}
	st0 := cl.ProviderService(cl.ProviderAddrs[0]).Store()
	if err := st0.Put("k", []byte("zero")); err != nil {
		t.Fatal(err)
	}
	if storetest.Holds(t, cl.ProviderService(cl.ProviderAddrs[1]).Store(), "k") {
		t.Fatal("providers share a directory; {n} substitution failed")
	}
}
