package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"slices"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/mdtree"
	"blobseer/internal/rpc"
	"blobseer/internal/wire"
)

// These tests hold the read path to the versioning contract — a reader
// of v sees exactly the writes <= v. A Snapshot resolves from the
// client's block index, which its pin brought up to the version; the
// paper's tree walk, mdtree.Resolve run directly on the metadata store,
// is the reference it is checked against. They run with released
// buffers poisoned, so a descriptor or node decoded out of a recycled
// frame shows as a wrong read.

const pinBS = int64(4 * 1024)

func poisonReleased(t *testing.T) {
	wire.PoisonReleased(true)
	t.Cleanup(func() { wire.PoisonReleased(false) })
}

// pinClient returns a fresh client of d (cold caches) with a node cache
// of cacheSize entries (0: none, so every resolve reaches d's store).
func pinClient(t *testing.T, d *miniDeploy, cacheSize int) *Client {
	t.Helper()
	pool := rpc.NewPool(d.net.Dial)
	t.Cleanup(pool.Close)
	return NewClient(Config{Pool: pool, VMAddrs: []string{d.vmAddr}, PMAddr: d.pmAddr, MetaStore: d.clientMeta, MetaCacheSize: cacheSize})
}

func blocksOf(tags ...byte) []byte {
	var out []byte
	for _, tag := range tags {
		out = append(out, bytes.Repeat([]byte{tag}, int(pinBS))...)
	}
	return out
}

func mustWrite(t *testing.T, b *Blob, off int64, data []byte) blob.Version {
	t.Helper()
	v, err := b.Write(context.Background(), off*pinBS, data)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func readAll(s *Snapshot) ([]byte, error) {
	buf := bytes.Repeat([]byte{0xEE}, int(s.Size()))
	if _, err := s.ReadAt(buf, 0); err != nil && err != io.EOF {
		return nil, err
	}
	return buf, nil
}

// dataExtents returns the extents of es that hold data: the walk splits
// a run of holes along subtree edges where the index keeps it whole, so
// only these compare.
func dataExtents(es []mdtree.Extent) []mdtree.Extent {
	var out []mdtree.Extent
	for _, e := range es {
		if e.HasData {
			out = append(out, e)
		}
	}
	return out
}

func sameExtents(a, b []mdtree.Extent) bool {
	return slices.EqualFunc(dataExtents(a), dataExtents(b), func(x, y mdtree.Extent) bool {
		return x.FileOff == y.FileOff && x.Len == y.Len && x.DataOff == y.DataOff &&
			x.Block.Key == y.Block.Key && x.Block.Len == y.Block.Len && slices.Equal(x.Block.Providers, y.Block.Providers)
	})
}

// walkAgrees checks s against the tree walk over st: the index must
// resolve the whole snapshot to the blocks mdtree.Resolve does, at the
// same offsets.
func walkAgrees(st mdtree.Store, s *Snapshot) error {
	ctx, r := context.Background(), blob.Range{Len: s.size}
	walk, err := mdtree.Resolve(ctx, st, s.b.meta, s.version, s.size, r)
	if err != nil {
		return fmt.Errorf("walk of v%d: %w", s.version, err)
	}
	var sc mdtree.Scratch
	index, err := s.owners.Resolve(ctx, s.b.c.meta, s.b.meta, s.version, s.size, r, &sc)
	if err != nil {
		return fmt.Errorf("index of v%d: %w", s.version, err)
	}
	if !sameExtents(index, walk) {
		return fmt.Errorf("v%d: the index resolves to %+v, the walk to %+v", s.version, index, walk)
	}
	return nil
}

// TestPinnedSnapshotStableWhileItsClientOverwrites: the client that
// pinned v goes on to overwrite the same blocks and to pin again, so its
// block index runs far ahead of v. The snapshot must keep naming v's
// leaves.
func TestPinnedSnapshotStableWhileItsClientOverwrites(t *testing.T) {
	poisonReleased(t)
	d := startMini(t, 2, mdtree.NewMemStore())
	c := pinClient(t, d, 0)
	ctx := context.Background()
	b, err := c.CreateBlob(ctx, pinBS, 1)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, b, 0, blocksOf('a', 'a', 'a', 'a'))
	mustWrite(t, b, 1, blocksOf('b'))
	want := blocksOf('a', 'b', 'a', 'a')
	s, err := b.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if through := s.owners.Through(); through != 2 {
		t.Fatalf("a pin from version 0 of a 2-version blob indexed %d versions", through)
	}
	before, err := readAll(s)
	if err != nil || !bytes.Equal(before, want) {
		t.Fatalf("read of v2 before the overwrites: %v", err)
	}
	for i := byte(0); i < 6; i++ {
		mustWrite(t, b, int64(i%4), blocksOf('p'+i, 'q'+i))
		if _, err := b.Latest(ctx); err != nil { // extends the index s reads through
			t.Fatal(err)
		}
	}
	if through := s.owners.Through(); through != 8 {
		t.Fatalf("block index reaches version %d after pinning version 8", through)
	}
	if after, err := readAll(s); err != nil || !bytes.Equal(after, before) {
		t.Errorf("v2 reads differently after its client overwrote it (err %v)", err)
	}
	if err := walkAgrees(d.meta, s); err != nil {
		t.Error(err)
	}
	// And an old version pinned late, by a client that only knows the
	// whole history, is still that version.
	old, err := b.Snapshot(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := readAll(old); err != nil || !bytes.Equal(got, blocksOf('a', 'a', 'a', 'a')) {
		t.Errorf("v1 pinned after 8 versions does not read as v1 (err %v)", err)
	}
}

// TestAbortedVersionReadsAsZerosOnBothPaths: a version whose writer
// failed has no metadata to read. Its blocks read as zeros through
// ReadAt and through a streamed reader, which fetches its leaves a
// window ahead — an aborted overwrite included, which must not show the
// older bytes under it — and the later writes beside them read intact.
func TestAbortedVersionReadsAsZerosOnBothPaths(t *testing.T) {
	poisonReleased(t)
	inner := mdtree.NewMemStore()
	meta := &failingMetaStore{MemStore: inner}
	d := startMini(t, 2, inner)
	d.clientMeta = meta
	ctx := context.Background()
	b, err := pinClient(t, d, 0).CreateBlob(ctx, pinBS, 1)
	if err != nil {
		t.Fatal(err)
	}
	failing := func(write func() (blob.Version, error)) {
		t.Helper()
		meta.broken.Store(true)
		defer meta.broken.Store(false)
		if _, err := write(); err == nil {
			t.Fatal("a write with a broken metadata store succeeded")
		}
	}
	mustWrite(t, b, 0, blocksOf('a', 'a'))
	failing(func() (blob.Version, error) { return b.Append(ctx, blocksOf('x')) })
	if _, err := b.Append(ctx, blocksOf('c')); err != nil {
		t.Fatal(err)
	}
	failing(func() (blob.Version, error) { return b.Write(ctx, 0, blocksOf('y')) })
	want := map[blob.Version][]byte{3: blocksOf('a', 'a', 0, 'c'), 4: blocksOf(0, 'a', 0, 'c')}

	rb, err := pinClient(t, d, -1).OpenBlob(ctx, b.ID())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rb.WaitPublished(ctx, 4, 0); err != nil {
		t.Fatal(err)
	}
	for v, want := range want {
		s, err := rb.Snapshot(ctx, v)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := readAll(s); err != nil || !bytes.Equal(got, want) {
			t.Errorf("v%d through ReadAt reads wrong (err %v)", v, err)
		}
		r := s.NewReader(ctx, ReaderOptions{Readahead: 2})
		got, err := io.ReadAll(r)
		r.Close()
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("v%d through a stream reads wrong (err %v)", v, err)
		}
	}
}

// TestSnapshotBelowPrunePointNeverReadsAnotherVersion: once GC passes a
// pinned version its snapshot may fail, or may still read what is left
// of it — but a read that succeeds returns that version's bytes.
func TestSnapshotBelowPrunePointNeverReadsAnotherVersion(t *testing.T) {
	poisonReleased(t)
	d := startMini(t, 2, mdtree.NewMemStore())
	ctx := context.Background()
	w := pinClient(t, d, 0)
	b, err := w.CreateBlob(ctx, pinBS, 1)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, b, 0, blocksOf('a', 'a', 'a', 'a'))
	mustWrite(t, b, 1, blocksOf('b'))
	mustWrite(t, b, 1, blocksOf('c'))
	content := map[blob.Version][]byte{1: blocksOf('a', 'a', 'a', 'a'), 2: blocksOf('a', 'b', 'a', 'a')}

	rb, err := pinClient(t, d, -1).OpenBlob(ctx, b.ID())
	if err != nil {
		t.Fatal(err)
	}
	var snaps []*Snapshot
	walks := map[blob.Version][]mdtree.Extent{} // each version's blocks, before GC
	for v := range content {
		s, err := rb.Snapshot(ctx, v)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, s)
		if walks[v], err = mdtree.Resolve(ctx, d.meta, s.b.meta, v, s.size, blob.Range{Len: s.size}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.GC(ctx, b.ID(), 3); err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, s := range snaps {
		// The walk of a pruned version may fail, but one that succeeds
		// names that version's blocks.
		if got, err := mdtree.Resolve(ctx, d.meta, s.b.meta, s.version, s.size, blob.Range{Len: s.size}); err != nil {
			failed++
		} else if !sameExtents(got, walks[s.version]) {
			t.Errorf("v%d after GC(keep 3): the walk succeeded with blocks of another version", s.version)
		}
		for _, r := range []blob.Range{{Off: 0, Len: 4 * pinBS}, {Off: 0, Len: pinBS}, {Off: pinBS, Len: pinBS}} {
			got := make([]byte, r.Len)
			if _, err := s.ReadAt(got, r.Off); err != nil && err != io.EOF {
				failed++
				continue
			}
			if !bytes.Equal(got, content[s.version][r.Off:r.End()]) {
				t.Errorf("v%d %v after GC(keep 3): read succeeded with bytes of another version (%q...)", s.version, r, got[:1])
			}
		}
	}
	if failed == 0 {
		t.Error("GC freed nothing any pruned snapshot reads: the test no longer covers a pruned read")
	}
	if _, err := rb.Snapshot(ctx, 2); err == nil {
		t.Error("pinning a pruned version succeeded")
	}
}

// TestPinBeyondDescriptorCapPages: a client further behind than one
// Latest reply carries catches up a page at a time. Its pin reaches the
// version through the block index with two Latest calls, and a 4-block
// read then costs one metadata batch, the bytes the walk names.
func TestPinBeyondDescriptorCapPages(t *testing.T) {
	poisonReleased(t)
	mem := mdtree.NewMemStore()
	d := startMini(t, 2, mem)
	ctx := context.Background()
	b, err := pinClient(t, d, 0).CreateBlob(ctx, pinBS, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A long history without the cost of writing it: versions assigned
	// and committed straight at the manager, each an overwrite of block
	// 0. They have no trees, and need none, because the real write that
	// follows covers the whole blob and borrows nothing.
	vm := d.vm.State()
	const behind = 10000 // above vmanager's cap on descriptors per reply
	for i := 0; i < behind; i++ {
		a, err := vm.AssignVersion(b.ID(), blob.KindWrite, 0, pinBS, uint64(i+1), blob.Version(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.Commit(b.ID(), a.Version); err != nil {
			t.Fatal(err)
		}
	}
	want := blocksOf('w', 'x', 'y', 'z')
	mustWrite(t, b, 0, want)

	rb, err := pinClient(t, d, 0).OpenBlob(ctx, b.ID())
	if err != nil {
		t.Fatal(err)
	}
	ops := d.vm.Ops()
	s, err := rb.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if now := d.vm.Ops(); now.Latest != ops.Latest+2 || now.Total() != ops.Total()+2 {
		t.Errorf("a pin %d versions behind cost the version manager %+v -> %+v, want exactly two Latest calls", behind+1, ops, now)
	}
	if s.Version() != behind+1 || s.owners.Through() != behind+1 {
		t.Fatalf("pin %d versions behind: version %d, index through %d", behind+1, s.Version(), s.owners.Through())
	}
	_, batches := mem.BatchOps()
	got, err := readAll(s)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read through the paged index: %v", err)
	}
	if _, after := mem.BatchOps(); after-batches != 1 {
		t.Errorf("a 4-block read took %d batched fetches, want 1: its leaves", after-batches)
	}
	if err := walkAgrees(mem, s); err != nil {
		t.Error(err)
	}
}

// TestReadCostsOneMetadataRoundTrip pins the point of the block index:
// a cold read reaches the metadata store in exactly one batch holding
// exactly its leaves, a warm one not at all, and a pin is one Latest
// call at the version manager — where the tree walk pays a round trip
// per level.
func TestReadCostsOneMetadataRoundTrip(t *testing.T) {
	poisonReleased(t)
	mem := mdtree.NewMemStore()
	d := startMini(t, 2, mem)
	ctx := context.Background()
	b, err := pinClient(t, d, 0).CreateBlob(ctx, pinBS, 1)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, b, 0, blocksOf('a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'))
	mustWrite(t, b, 3, blocksOf('D'))
	mustWrite(t, b, 4, blocksOf('E'))
	want := blocksOf('a', 'b', 'c', 'D', 'E', 'f', 'g', 'h')

	c := pinClient(t, d, -1)
	rb, err := c.OpenBlob(ctx, b.ID())
	if err != nil {
		t.Fatal(err)
	}
	ops := d.vm.Ops()
	s, err := rb.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if now := d.vm.Ops(); now.Latest != ops.Latest+1 || now.Total() != ops.Total()+1 {
		t.Errorf("one pin cost the version manager %+v -> %+v, want exactly one Latest", ops, now)
	}

	// Three blocks, unaligned, across both overwrites.
	off, buf := 2*pinBS+100, make([]byte, 2*pinBS+200)
	read := func(s *Snapshot) (batches, nodes int64) {
		t.Helper()
		_, b0 := mem.BatchOps()
		_, n0 := mem.Ops()
		if _, err := s.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want[off:off+int64(len(buf))]) {
			t.Fatal("wrong bytes")
		}
		_, b1 := mem.BatchOps()
		_, n1 := mem.Ops()
		return b1 - b0, n1 - n0
	}
	cached := c.MetaCacheStats().BatchGets
	if batches, nodes := read(s); batches != 1 || nodes != 3 {
		t.Errorf("cold 3-block read: %d batches fetching %d nodes, want 1 batch of the 3 leaves", batches, nodes)
	}
	if got := c.MetaCacheStats().BatchGets - cached; got != 1 {
		t.Errorf("cold 3-block read: node cache issued %d batched fetches, want 1", got)
	}
	if batches, nodes := read(s); batches != 0 || nodes != 0 {
		t.Errorf("warm 3-block read: %d batches, %d nodes, want none", batches, nodes)
	}

	// The same range resolved by walking the tree: a level at a time.
	_, b0 := mem.BatchOps()
	_, n0 := mem.Ops()
	walk, err := mdtree.Resolve(ctx, mem, s.b.meta, s.version, s.size, blob.Range{Off: off, Len: int64(len(buf))})
	if err != nil {
		t.Fatal(err)
	}
	_, b1 := mem.BatchOps()
	_, n1 := mem.Ops()
	if depth := int64(4); b1-b0 != depth || n1-n0 <= 3 { // a batch per level, the root's of one node
		t.Errorf("tree walk of a 3-block range: %d batches, %d nodes; want %d levels and inner nodes among them", b1-b0, n1-n0, depth)
	}
	if err := walkAgrees(mem, s); err != nil || len(dataExtents(walk)) != 3 {
		t.Errorf("the walk names %d blocks of the range (%v), want the 3 the index read", len(dataExtents(walk)), err)
	}
}

// TestAppenderCachesExactlyItsLeaves: what an append writes through the
// client's node cache stays cached only if a reader names it — the
// appended leaves, never the spine above them — and a read of them
// through the same client reaches the metadata store not at all.
func TestAppenderCachesExactlyItsLeaves(t *testing.T) {
	poisonReleased(t)
	mem := mdtree.NewMemStore()
	d := startMini(t, 2, mem)
	c := pinClient(t, d, -1)
	ctx := context.Background()
	b, err := c.CreateBlob(ctx, pinBS, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := blocksOf('a', 'b', 'c', 'd', 'e')
	for _, data := range [][]byte{want[:3*pinBS], want[3*pinBS:]} {
		if _, err := b.Append(ctx, data); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.MetaCacheStats().Size; got != 5 {
		t.Errorf("after appending 5 blocks the writer caches %d nodes, want its 5 leaves", got)
	}
	s, err := b.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_, gets := mem.Ops()
	if got, err := readAll(s); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back: %v", err)
	}
	if _, after := mem.Ops(); after != gets {
		t.Errorf("reading its own appends cost the writer %d metadata gets, want 0", after-gets)
	}
}

// TestBlobStateTableIsBounded: the per-blob cache holds maxBlobStates
// blobs, the least recently used goes first, and nothing that still
// holds a dropped state — or comes back to the blob — notices.
func TestBlobStateTableIsBounded(t *testing.T) {
	d := startMini(t, 2, mdtree.NewMemStore())
	c := pinClient(t, d, 0)
	ctx := context.Background()
	first, err := c.CreateBlob(ctx, pinBS, 1)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, first, 0, blocksOf('a'))
	s, err := first.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.CreateBlob(ctx, pinBS, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxBlobStates; i++ {
		if i%100 == 0 {
			mustWrite(t, second, 0, blocksOf('s')) // stays in use
		}
		if _, err := c.CreateBlob(ctx, pinBS, 1); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	n, keptFirst, keptSecond := len(c.blobs), c.blobs[first.ID()] != nil, c.blobs[second.ID()] != nil
	c.mu.Unlock()
	if n != maxBlobStates || keptFirst || !keptSecond {
		t.Fatalf("%d states cached (bound %d); idle blob kept: %v, busy blob kept: %v", n, maxBlobStates, keptFirst, keptSecond)
	}
	if got, err := readAll(s); err != nil || !bytes.Equal(got, blocksOf('a')) {
		t.Errorf("snapshot of a dropped blob: %v", err)
	}
	if _, err := first.Append(ctx, blocksOf('b')); err != nil {
		t.Errorf("append to a dropped blob: %v", err)
	}
	s, err = first.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := readAll(s); err != nil || !bytes.Equal(got, blocksOf('a', 'b')) || s.owners.Through() != s.Version() {
		t.Errorf("re-pinned dropped blob: err %v, index through %d", err, s.owners.Through())
	}
}
