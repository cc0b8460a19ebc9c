package cluster

import (
	"testing"
	"time"

	"blobseer/internal/node"
)

// TestDefaultDeploymentStartsTheJanitor: a deployment that names no
// write timeout still starts every version-manager shard with its
// dead-writer janitor, at node.DefaultWriteTimeout, so a writer that
// dies between assign and commit stalls its blob for a bounded time. A
// negative timeout starts none (node starts a janitor only above 0).
func TestDefaultDeploymentStartsTheJanitor(t *testing.T) {
	for _, tc := range []struct{ set, want time.Duration }{
		{0, node.DefaultWriteTimeout},
		{-1, -1},
	} {
		c, err := StartBlobSeer(Config{DataProviders: 1, MetaProviders: 1, VMShards: 2, WriteTimeout: tc.set})
		if err != nil {
			t.Fatal(err)
		}
		for _, addr := range c.VMAddrs {
			if got := c.node(addr).Config().WriteTimeout; got != tc.want {
				t.Errorf("WriteTimeout %v: shard %s runs with %v, want %v", tc.set, addr, got, tc.want)
			}
		}
		c.Stop()
	}
}
