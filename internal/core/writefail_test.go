package core_test

import (
	"bytes"
	"context"
	"testing"

	"blobseer/internal/cluster"
	"blobseer/internal/core"
	"blobseer/internal/stream"
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

// TestFailedRunPublishesNothing: a create-mode stream publishes a run
// only once every block of it is stored. With the first run published,
// a provider the second run is placed on fails its block: Close fails,
// the blob keeps the first run's version alone, and the second run's
// blocks that did land are garbage-collected by nonce.
func TestFailedRunPublishesNothing(t *testing.T) {
	const block = int64(4 * util.KB)
	cl, err := cluster.StartBlobSeer(cluster.Config{DataProviders: 3, BlockSize: block})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()
	b, err := cl.NewClient("").CreateBlob(ctx, block, 1)
	if err != nil {
		t.Fatal(err)
	}
	stored := func() (n int64) {
		for _, addr := range cl.ProviderAddrs {
			n += cl.ProviderService(addr).Store().Stats().Items
		}
		return n
	}

	w := b.NewWriter(ctx, core.WriterOptions{Depth: 2})
	first := bytes.Repeat([]byte{1}, int(stream.RunBlocks*block))
	if _, err := w.Write(first); err != nil {
		t.Fatal(err)
	}
	// The run ended inside that Write: it is published before the
	// phantom joins.
	s, err := b.Latest(ctx)
	if err != nil || s.Version() != 1 || s.Size() != int64(len(first)) {
		t.Fatalf("after one run: v%d of %d bytes, %v; want v1 of %d", s.Version(), s.Size(), err, len(first))
	}
	cl.PMService().State().Register("phantom-provider", "host-ghost")
	// 4 blocks round robin over 4 slots: one hits the phantom, and the
	// Write may already report it.
	_, _ = w.Write(make([]byte, 4*block))
	if err := w.Close(); err == nil {
		t.Fatal("a stream whose run lost a block closed cleanly")
	}
	if s, err := b.Latest(ctx); err != nil || s.Version() != 1 {
		t.Fatalf("after the failed run: v%d, %v; want v1 alone", s.Version(), err)
	}
	if n := stored(); n != stream.RunBlocks {
		t.Fatalf("%d blocks stored after the failed run, want the first run's %d", n, stream.RunBlocks)
	}
}
