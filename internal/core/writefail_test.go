package core_test

import (
	"bytes"
	"context"
	"testing"

	"blobseer/internal/cluster"
	"blobseer/internal/util"
)

// TestWholeWriteFailsAndOrphansAreGCd pins the paper's failure rule
// ("if writing of a block fails, then the whole write fails"): with
// one provider registered at an unreachable address, a multi-block
// write fails as a unit, no version is consumed, the blocks that *did*
// land are garbage-collected by nonce, and the blob remains fully
// usable afterwards.
func TestWholeWriteFailsAndOrphansAreGCd(t *testing.T) {
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

	// A phantom provider: registered for placement, but nothing
	// listens there, so every block put to it fails.
	cl.PMService().State().Register("phantom-provider", "host-ghost")

	c := cl.NewClient("")
	m, err := c.Create(ctx, block, 1)
	if err != nil {
		t.Fatal(err)
	}

	// 8 blocks round-robin over 4 placement slots: two blocks must hit
	// the phantom, so the write fails regardless of rotation offset.
	if _, err := appendBlob(ctx, c, m.ID, make([]byte, 8*block)); err == nil {
		t.Fatal("write through an unreachable provider should fail as a whole")
	}

	// No version was consumed by the failure.
	if v, size, err := c.Latest(ctx, m.ID); err != nil || v != 0 || size != 0 {
		t.Fatalf("failed write left state behind: v=%d size=%d err=%v", v, size, err)
	}
	// The blocks that made it to live providers were GC'd by nonce.
	var leftover int64
	for _, addr := range cl.ProviderAddrs {
		leftover += cl.ProviderService(addr).Store().Stats().Items
	}
	if leftover != 0 {
		t.Fatalf("%d orphan blocks left on live providers after failed write", leftover)
	}

	// The blob works once the phantom is removed from placement.
	cl.PMService().State().MarkDead("phantom-provider")
	payload := bytes.Repeat([]byte{9}, int(8*block))
	v, err := appendBlob(ctx, c, m.ID, payload)
	if err != nil {
		t.Fatalf("write after phantom removal: %v", err)
	}
	got, err := readBlob(ctx, c, m.ID, v, 0, int64(len(payload)))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("recovery read failed: %v", err)
	}
}
