package repair_test

import (
	"bytes"
	"context"
	"io"
	"maps"
	"slices"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/cluster"
	"blobseer/internal/core"
	"blobseer/internal/mdtree"
	"blobseer/internal/vmanager"
)

const bs = 4096

func deploy(t *testing.T) (*cluster.BlobSeer, *core.Client) {
	t.Helper()
	cl, err := cluster.StartBlobSeer(cluster.Config{DataProviders: 4, BlockSize: bs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	return cl, cl.NewClient("")
}

// historyKeys is the reference a scan is held to: the union, over every
// published version of every blob that is not pruned, of the blocks the
// version reads, named from the history alone. A block is read from the
// newest write at or below the version that covers it, unless that
// write was aborted: then it reads as zeros, from no block.
func historyKeys(t *testing.T, c *core.Client) map[blob.BlockKey]bool {
	t.Helper()
	ctx, vm := context.Background(), c.VM()
	ids, err := vm.ListBlobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[blob.BlockKey]bool{}
	for _, id := range ids {
		h := &blob.History{}
		head, err := vm.LatestSince(ctx, id, 0, blob.NoVersion, func(_ vmanager.Head, descs []blob.WriteDesc) error {
			return h.Extend(descs)
		})
		if err != nil {
			t.Fatal(err)
		}
		for v := head.Oldest; v <= head.Published; v++ {
			for b := int64(0); b < blob.Blocks(h.SizeAt(v), bs); b++ {
				w := h.LatestIntersecting(blob.Range{Off: b * bs, Len: bs}, v)
				if d, ok := h.Desc(w); ok && !d.Aborted {
					keys[blob.BlockKey{Blob: id, Nonce: d.Nonce, Seq: uint32(b - d.Off/bs)}] = true
				}
			}
		}
	}
	return keys
}

// walkInto adds to keys the blocks with providers that a walk of
// version v's tree names.
func walkInto(t *testing.T, keys map[blob.BlockKey]bool, cl *cluster.BlobSeer, meta blob.Meta, v blob.Version, size int64) {
	t.Helper()
	ext, err := mdtree.Resolve(context.Background(), cl.MetaStore, meta, v, size, blob.Range{Len: size})
	if err != nil {
		t.Fatalf("walk of blob %d v%d: %v", meta.ID, v, err)
	}
	for _, e := range ext {
		if e.HasData && len(e.Block.Providers) > 0 {
			keys[e.Block.Key] = true
		}
	}
}

// sortedKeys renders a key set for a failure message.
func sortedKeys(m map[blob.BlockKey]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k.String())
	}
	slices.Sort(out)
	return out
}

// TestScanFindsWhatEveryLiveVersionReads: on blobs with overwrites,
// appends, a partial tail, aborted versions and prune points, the blocks
// a scan names are exactly those every published, unpruned version
// reads by its history.
func TestScanFindsWhatEveryLiveVersionReads(t *testing.T) {
	cl, c := deploy(t)
	ctx := context.Background()
	st := cl.VMService().State()
	fill := func(b byte, blocks int) []byte { return bytes.Repeat([]byte{b}, blocks*bs) }
	open := func() *core.Blob {
		t.Helper()
		b, err := c.CreateBlob(ctx, bs, 1)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	must := func(_ blob.Version, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	abort := func(b *core.Blob, off, size int64) {
		t.Helper()
		kind := blob.KindWrite
		if off < 0 {
			kind = blob.KindAppend
		}
		a, err := st.AssignVersion(b.ID(), kind, off, size, 0xab047, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Abort(b.ID(), a.Version); err != nil {
			t.Fatal(err)
		}
		// The aborted writer's metadata lands late, naming a provider:
		// no version reads it, so no scan may name its blocks.
		h := &blob.History{}
		if err := h.Extend(a.Descs); err != nil {
			t.Fatal(err)
		}
		refs := make([]mdtree.BlockRef, blob.Blocks(size, bs))
		for i := range refs {
			key := blob.BlockKey{Blob: b.ID(), Nonce: 0xab047, Seq: uint32(i)}
			refs[i] = mdtree.BlockRef{Key: key, Providers: cl.ProviderAddrs[:1], Len: min(bs, size-int64(i)*bs)}
		}
		if _, err := mdtree.Build(ctx, cl.MetaStore, b.Meta(), h, a.Version, refs); err != nil {
			t.Fatal(err)
		}
	}

	// Overwrites, appends, an aborted append, a partial tail, pruned
	// below version 3.
	a := open()
	must(a.Write(ctx, 0, fill('a', 4)))
	must(a.Write(ctx, bs, fill('b', 1)))
	must(a.Append(ctx, fill('c', 2)))
	abort(a, -1, bs)
	must(a.Write(ctx, 2*bs, fill('d', 2)))
	must(a.Append(ctx, []byte("tail")))
	must(a.Write(ctx, 0, fill('e', 1)))
	if _, err := c.GC(ctx, a.ID(), 3); err != nil {
		t.Fatal(err)
	}

	// Never pruned, overwritten in the middle.
	b := open()
	must(b.Append(ctx, fill('f', 3)))
	must(b.Write(ctx, bs, fill('g', 1)))
	must(b.Append(ctx, fill('h', 1)))

	// Pruned up to an aborted overwrite: its snapshot reads the block it
	// overwrote as zeros, and still reads the block beside it, which
	// only the first version wrote.
	d := open()
	must(d.Write(ctx, 0, fill('i', 2)))
	abort(d, 0, bs)
	if _, err := c.GC(ctx, d.ID(), 2); err != nil {
		t.Fatal(err)
	}

	open() // never written

	want := historyKeys(t, c)
	got, err := cl.RepairEngine().ScannedKeys(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !maps.Equal(got, want) {
		t.Errorf("the scan names %d blocks, the live versions' histories %d:\nscan %v\nhistory %v",
			len(got), len(want), sortedKeys(got), sortedKeys(want))
	}
	if tasks, err := cl.RepairEngine().Scan(ctx); err != nil || len(tasks) != 0 {
		t.Errorf("a fully replicated deployment: %d repair tasks, %v", len(tasks), err)
	}
}

// TestGCAndScanSeeAHistoryLongerThanAPage: with more published versions
// than one Latest reply carries, a repair scan still reaches the last
// of them, and GC prunes up to it.
func TestGCAndScanSeeAHistoryLongerThanAPage(t *testing.T) {
	cl, c := deploy(t)
	ctx := context.Background()
	b, err := c.CreateBlob(ctx, bs, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A long history without the cost of writing it: versions assigned
	// and committed straight at the manager, each an overwrite of block
	// 0. They have no trees and no placement, and need neither, because
	// the real write that follows covers the whole blob and borrows
	// nothing.
	st := cl.VMService().State()
	const behind = 10000 // above the manager's page of 8,192 descriptors
	for i := 0; i < behind; i++ {
		a, err := st.AssignVersion(b.ID(), blob.KindWrite, 0, bs, uint64(i+1), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Commit(b.ID(), a.Version); err != nil {
			t.Fatal(err)
		}
	}
	data := bytes.Repeat([]byte("long history"), 4*bs/12+1)[:4*bs]
	last, err := b.Write(ctx, 0, data)
	if err != nil || last != behind+1 {
		t.Fatalf("write after %d versions: v%d, %v", behind, last, err)
	}
	want := map[blob.BlockKey]bool{}
	walkInto(t, want, cl, b.Meta(), last, int64(len(data)))
	if len(want) != 4 {
		t.Fatalf("the walks name %d blocks, want the last write's 4", len(want))
	}
	for pass, keep := range []blob.Version{0, last} {
		if keep != 0 {
			stats, err := c.GC(ctx, b.ID(), keep)
			if err != nil || stats.From != 1 || stats.To != keep {
				t.Fatalf("GC(keep %d) = %+v, %v; want versions [1, %d) pruned", keep, stats, err, keep)
			}
		}
		got, err := cl.RepairEngine().ScannedKeys(ctx)
		if err != nil || !maps.Equal(got, want) {
			t.Errorf("pass %d: the scan names %v (%v), want the last write's %v", pass, sortedKeys(got), err, sortedKeys(want))
		}
	}
	s, err := b.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := s.ReadAt(got, 0); err != nil && err != io.EOF || !bytes.Equal(got, data) {
		t.Errorf("the last version after GC: %v", err)
	}
}

// TestScanAsksTheManagerOncePerBlob: a scan and an audit each list the
// blobs, then make one version-manager call per blob, which brings its
// meta, prune point and history at once, for a history as long as one
// page of 8,192 descriptors.
func TestScanAsksTheManagerOncePerBlob(t *testing.T) {
	cl, c := deploy(t)
	ctx := context.Background()
	long, err := c.CreateBlob(ctx, bs, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := cl.VMService().State()
	for i := 0; i < 8192; i++ {
		a, err := st.AssignVersion(long.ID(), blob.KindWrite, 0, bs, uint64(i+1), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Commit(long.ID(), a.Version); err != nil {
			t.Fatal(err)
		}
	}
	written, err := c.CreateBlob(ctx, bs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := written.Append(ctx, bytes.Repeat([]byte{'w'}, 4*bs)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateBlob(ctx, bs, 1); err != nil { // no version at all
		t.Fatal(err)
	}
	const blobs = 3
	e, vm := cl.RepairEngine(), cl.VMService()
	for _, run := range []struct {
		name string
		call func() error
	}{
		{"scan", func() error { _, err := e.ScannedKeys(ctx); return err }},
		{"audit", func() error { _, err := e.Audit(ctx); return err }},
	} {
		before := vm.Ops().Total()
		if err := run.call(); err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if calls := vm.Ops().Total() - before; calls != 1+blobs {
			t.Errorf("one %s of %d blobs made %d version-manager calls, want %d", run.name, blobs, calls, 1+blobs)
		}
	}
}
