package core

import (
	"bytes"
	"context"
	"io"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/mdtree"
	"blobseer/internal/vmanager"
)

// An aborted write wrote nothing: every later snapshot reads what was
// there before it, and the garbage collector, which asks the same block
// index, keeps those bytes.

// storedItems counts the blocks on d's providers.
func storedItems(d *miniDeploy) (n int64) {
	for _, cs := range d.provStore {
		n += cs.Stats().Items
	}
	return n
}

// head is the start of p, for a failure message.
func head(p []byte) []byte { return p[:min(len(p), 8)] }

// TestAbortedOverwriteKeepsTheBytesUnderIt: an overwrite whose metadata
// build fails is aborted; the snapshots after it read the bytes it
// would have overwritten, on both read paths, and still do after GC
// prunes everything below the latest version.
func TestAbortedOverwriteKeepsTheBytesUnderIt(t *testing.T) {
	poisonReleased(t)
	inner := mdtree.NewMemStore()
	meta := &failingMetaStore{MemStore: inner}
	d := startMini(t, 2, inner)
	d.clientMeta = meta
	ctx := context.Background()
	w := pinClient(t, d)
	b, err := w.CreateBlob(ctx, pinBS, 1)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, b, 0, blocksOf('a', 'a'))
	meta.broken.Store(true)
	if _, err := b.Write(ctx, 0, blocksOf('x')); err == nil {
		t.Fatal("a write with a broken metadata store succeeded")
	}
	meta.broken.Store(false)
	last, err := b.Append(ctx, blocksOf('c'))
	if err != nil {
		t.Fatal(err)
	}
	st, err := w.GC(ctx, b.ID(), last)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := pinClient(t, d).OpenBlob(ctx, b.ID())
	if err != nil {
		t.Fatal(err)
	}
	s, err := rb.Snapshot(ctx, last)
	if err != nil {
		t.Fatal(err)
	}
	want := blocksOf('a', 'a', 'c')
	if got, err := readAll(s); err != nil || !bytes.Equal(got, want) {
		t.Errorf("v%d after GC through ReadAt: %q..., %v; want a,a,c", last, head(got), err)
	}
	r := s.NewReader(ctx, ReaderOptions{Readahead: 2})
	defer r.Close()
	if got, err := io.ReadAll(r); err != nil || !bytes.Equal(got, want) {
		t.Errorf("v%d after GC through a stream: %q..., %v; want a,a,c", last, head(got), err)
	}
	if st.BlocksFreed != 0 || storedItems(d) != 3 {
		t.Errorf("GC freed %d blocks, %d left; want none freed: v%d reads every block v1 wrote", st.BlocksFreed, storedItems(d), last)
	}
}

// TestAbortedMergedAppendKeepsTheTailItCarried: onto a blob that ends
// mid-block, an append carries the tail it read; when it is aborted,
// the tail reads as before, its own bytes as zeros, and the next
// append lands after them.
func TestAbortedMergedAppendKeepsTheTailItCarried(t *testing.T) {
	poisonReleased(t)
	inner := mdtree.NewMemStore()
	meta := &failingMetaStore{MemStore: inner}
	d := startMini(t, 2, inner)
	d.clientMeta = meta
	ctx := context.Background()
	b, err := pinClient(t, d).CreateBlob(ctx, pinBS, 1)
	if err != nil {
		t.Fatal(err)
	}
	half := bytes.Repeat([]byte{'h'}, int(pinBS/2))
	first := append(blocksOf('a'), half...)
	mustWrite(t, b, 0, first)
	meta.broken.Store(true)
	if _, err := b.Append(ctx, blocksOf('x')); err == nil {
		t.Fatal("an append with a broken metadata store succeeded")
	}
	meta.broken.Store(false)
	last, err := b.Append(ctx, blocksOf('c'))
	if err != nil {
		t.Fatal(err)
	}
	s, err := pinClient(t, d).OpenBlob(ctx, b.ID())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot(ctx, last)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append(first, make([]byte, pinBS)...), blocksOf('c')...)
	got, err := readAll(snap)
	if err != nil || len(got) != len(want) {
		t.Fatalf("v%d reads %d bytes, %v; want %d", last, len(got), err, len(want))
	}
	for off := int64(0); off < int64(len(want)); off += pinBS / 2 {
		if !bytes.Equal(got[off:off+pinBS/2], want[off:off+pinBS/2]) {
			t.Errorf("v%d reads %q at [%d, %d), want %q", last, head(got[off:]), off, off+pinBS/2, head(want[off:]))
		}
	}
}

// TestGCFinishesItsSweepPastAFailedDelete: the prune point moves before
// the sweep, so a rerun would find nothing to free; a node that cannot
// be deleted fails the call, and every other dead node and block of the
// sweep is freed all the same.
func TestGCFinishesItsSweepPastAFailedDelete(t *testing.T) {
	inner := mdtree.NewMemStore()
	meta := &failingMetaStore{MemStore: inner}
	d := startMini(t, 2, inner)
	d.clientMeta = meta
	ctx := context.Background()
	c := pinClient(t, d)
	b, err := c.CreateBlob(ctx, pinBS, 1)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, b, 0, blocksOf('a', 'a'))
	mustWrite(t, b, 0, blocksOf('b'))
	mustWrite(t, b, 1, blocksOf('c'))
	keep := mustWrite(t, b, 0, blocksOf('d')) // v4 reads v4's block 0 and v3's block 1

	hist := &blob.History{}
	if _, err := c.vm.LatestSince(ctx, b.ID(), 0, blob.NoVersion, func(_ vmanager.Head, descs []blob.WriteDesc) error {
		return hist.Extend(descs)
	}); err != nil {
		t.Fatal(err)
	}
	var dead []mdtree.NodeID
	for k := blob.Version(1); k < keep; k++ {
		ids, err := mdtree.DeadNodes(b.Meta(), hist, k, keep)
		if err != nil {
			t.Fatal(err)
		}
		dead = append(dead, ids...)
	}
	meta.refused = dead[0] // a node of v1: the rest of the sweep comes after it
	st, err := c.GC(ctx, b.ID(), keep)
	if err == nil {
		t.Error("GC with a failed node delete reported no error")
	}
	for _, id := range dead[1:] {
		if inner.Has(id) {
			t.Errorf("dead node %s still stored", id.Key())
		}
	}
	if !inner.Has(dead[0]) || st.NodesFreed != len(dead)-1 {
		t.Errorf("GC freed %d nodes of %d dead, one refused", st.NodesFreed, len(dead))
	}
	if items := storedItems(d); items != 2 || st.BlocksFreed != 3 {
		t.Errorf("%d blocks stored after GC, %d freed; want v1's two and v2's one freed, v3's and v4's kept", items, st.BlocksFreed)
	}
	snap, err := b.Snapshot(ctx, keep)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := readAll(snap); err != nil || !bytes.Equal(got, blocksOf('d', 'c')) {
		t.Errorf("v%d after GC: %q..., %v", keep, head(got), err)
	}
}
