package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/cluster"
	"blobseer/internal/core"
	"blobseer/internal/mdtree"
	"blobseer/internal/util"
	"blobseer/internal/vmanager"
)

// TestDeadWriterRecovery is the paper's dead-writer scenario end to
// end: a writer is assigned a version, then crashes before writing its
// metadata. Publication stalls (linearizability demands in-order
// reveal), a healthy writer commits the next version, and the version
// manager's janitor eventually aborts the corpse, which lets
// publication advance with no metadata written for it. The aborted
// range reads as zeros; the healthy write is intact.
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
	if h, _ := vm.Latest(ctx, m.ID); h.Published >= corpse {
		t.Fatalf("publication advanced past the un-repaired corpse: %d", h.Published)
	}

	// The janitor (50 ms threshold) must reclaim it.
	if _, err := waitBlob(ctx, c, m.ID, healthy, 5*time.Second); err != nil {
		t.Fatalf("publication never advanced past the dead writer: %v", err)
	}

	// The corpse's descriptor is marked aborted and its range reads as
	// zeros; the healthy append is intact after it.
	hist, err := cluster.HistoryOf(ctx, vm, m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := hist.Desc(corpse); !d.Aborted {
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

// slowMeta holds every metadata put for a while.
type slowMeta struct {
	mdtree.Store
	hold time.Duration
}

func (s slowMeta) PutBatch(ctx context.Context, nodes []mdtree.Node) error {
	time.Sleep(s.hold)
	return s.Store.PutBatch(ctx, nodes)
}

// TestAbortedWriterFreesItsBlocks: a writer whose metadata takes longer
// than the write timeout is aborted by the janitor before it commits.
// Its write fails with ErrAborted, it frees the blocks it stored, and
// its range reads what was there before it — also once its metadata
// has landed.
func TestAbortedWriterFreesItsBlocks(t *testing.T) {
	const block = int64(4 * util.KB)
	const timeout = 200 * time.Millisecond
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 3,
		MetaProviders: 2,
		BlockSize:     block,
		WriteTimeout:  timeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()
	b, err := cl.NewClient("").CreateBlob(ctx, block, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write(ctx, 0, bytes.Repeat([]byte{'a'}, int(2*block))); err != nil {
		t.Fatal(err)
	}
	items := func() (n int64) {
		for _, addr := range cl.ProviderAddrs {
			n += cl.ProviderService(addr).Store().Stats().Items
		}
		return n
	}
	before := items()

	slow := core.NewClient(core.Config{
		Pool:      cl.Pool,
		VMAddrs:   cl.VMAddrs,
		PMAddr:    cl.PMAddr,
		MetaStore: slowMeta{Store: cl.MetaStore, hold: 5 * timeout},
	})
	sb, err := slow.OpenBlob(ctx, b.ID())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Write(ctx, 0, bytes.Repeat([]byte{'x'}, int(block))); !errors.Is(err, vmanager.ErrAborted) {
		t.Fatalf("the slow write = %v, want ErrAborted", err)
	}
	if after := items(); after != before {
		t.Errorf("%d blocks on the providers after the aborted write, %d before it", after, before)
	}
	s, err := cl.NewClient("").OpenBlob(ctx, b.ID())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2*block)
	if _, err := snap.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{'a'}, int(2*block))
	if snap.Version() != 2 || !bytes.Equal(got, want) {
		t.Errorf("v%d after the aborted overwrite reads %q..., want v2: the first write whole", snap.Version(), got[:8])
	}
}
