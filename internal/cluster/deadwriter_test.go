package cluster_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/cluster"
	"blobseer/internal/util"
)

// TestDeadWriterRecovery is the paper's dead-writer scenario end to
// end: a writer is assigned a version, then crashes before writing its
// metadata. Publication stalls (linearizability demands in-order
// reveal), a healthy writer commits the next version, and the version
// manager's janitor eventually aborts the corpse, repairs its metadata
// as an empty patch, and lets publication advance. The aborted range
// reads as zeros; the healthy write is intact.
func TestDeadWriterRecovery(t *testing.T) {
	const block = int64(4 * util.KB)
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 3,
		MetaProviders: 2,
		BlockSize:     block,
		WriteTimeout:  50 * time.Millisecond,
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

	// A good baseline version so the blob is non-empty.
	if _, err := appendBlob(ctx, c, m.ID, bytes.Repeat([]byte{'a'}, int(block))); err != nil {
		t.Fatal(err)
	}

	// The dying writer: grabs version 2 and vanishes without writing
	// data, metadata, or a commit.
	vm := c.VM()
	a, err := vm.AssignVersion(ctx, m.ID, blob.KindAppend, 0, block, 12345, 0)
	if err != nil {
		t.Fatal(err)
	}
	corpse := a.Version

	// A healthy writer appends after the corpse; its version (3) cannot
	// publish until version 2 resolves.
	healthy, err := appendBlob(ctx, c, m.ID, bytes.Repeat([]byte{'c'}, int(block)))
	if err != nil {
		t.Fatal(err)
	}
	if pub, _, _ := vm.Latest(ctx, m.ID); pub >= corpse {
		t.Fatalf("publication advanced past the un-repaired corpse: %d", pub)
	}

	// The janitor (50 ms threshold) must reclaim it.
	pub, _, err := c.WaitPublished(ctx, m.ID, healthy, 5*time.Second)
	if err != nil {
		t.Fatalf("publication never advanced past the dead writer: %v", err)
	}
	if pub < healthy {
		t.Fatalf("published %d, want >= %d", pub, healthy)
	}

	// The corpse's descriptor is marked aborted and its range reads as
	// zeros; the healthy append is intact after it.
	d, err := vm.VersionInfo(ctx, m.ID, corpse)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Aborted {
		t.Error("corpse version not marked aborted")
	}
	got, err := readBlob(ctx, c, m.ID, healthy, 0, 3*block)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append(bytes.Repeat([]byte{'a'}, int(block)),
		make([]byte, block)...), bytes.Repeat([]byte{'c'}, int(block))...)
	if !bytes.Equal(got, want) {
		t.Fatal("post-recovery contents wrong")
	}
}
