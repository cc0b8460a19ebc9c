package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/mdtree"
	"blobseer/internal/rpc"
	"blobseer/internal/stream"
	"blobseer/internal/wire"
)

// These tests hold the read path to the versioning contract — a reader
// of v sees exactly the writes <= v. A Snapshot resolves from the
// client's block index, which its pin brought up to the version, each
// block's replicas from its write's placement; the paper's tree walk,
// mdtree.Resolve run directly on the metadata store, is the reference
// it is checked against. They run with released buffers poisoned, so a
// descriptor decoded out of a recycled frame shows as a wrong read.

const pinBS = int64(4 * 1024)

func poisonReleased(t *testing.T) {
	wire.PoisonReleased(true)
	t.Cleanup(func() { wire.PoisonReleased(false) })
}

// pinClient returns a fresh client of d: it knows no blob yet.
func pinClient(t *testing.T, d *miniDeploy) *Client {
	t.Helper()
	pool := rpc.NewPool(d.net.Dial)
	t.Cleanup(pool.Close)
	return NewClient(Config{Pool: pool, VMAddrs: []string{d.vmAddr}, PMAddr: d.pmAddr, MetaStore: d.clientMeta})
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
	index, err := s.owners.Resolve(s.b.meta, s.version, s.size, r, &sc)
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
// blocks.
func TestPinnedSnapshotStableWhileItsClientOverwrites(t *testing.T) {
	poisonReleased(t)
	d := startMini(t, 2, mdtree.NewMemStore())
	c := pinClient(t, d)
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
// failed has no metadata to read, and wrote nothing. Through ReadAt and
// through a streamed reader, an aborted append's blocks read as zeros,
// an aborted overwrite reads the older bytes under it, and the later
// writes beside them read intact.
func TestAbortedVersionReadsAsZerosOnBothPaths(t *testing.T) {
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
	want := map[blob.Version][]byte{3: blocksOf('a', 'a', 0, 'c'), 4: blocksOf('a', 'a', 0, 'c')}

	rb, err := pinClient(t, d).OpenBlob(ctx, b.ID())
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
	w := pinClient(t, d)
	b, err := w.CreateBlob(ctx, pinBS, 1)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, b, 0, blocksOf('a', 'a', 'a', 'a'))
	mustWrite(t, b, 1, blocksOf('b'))
	mustWrite(t, b, 1, blocksOf('c'))
	content := map[blob.Version][]byte{1: blocksOf('a', 'a', 'a', 'a'), 2: blocksOf('a', 'b', 'a', 'a')}

	rb, err := pinClient(t, d).OpenBlob(ctx, b.ID())
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
// read then sends no metadata call, and reads the bytes the walk names.
func TestPinBeyondDescriptorCapPages(t *testing.T) {
	poisonReleased(t)
	mem := mdtree.NewMemStore()
	d := startMini(t, 2, mem)
	ctx := context.Background()
	b, err := pinClient(t, d).CreateBlob(ctx, pinBS, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A long history without the cost of writing it: versions assigned
	// and committed straight at the manager, each an overwrite of block
	// 0. They have no trees and no placement, and need neither, because
	// the real write that follows covers the whole blob and borrows
	// nothing.
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

	rb, err := pinClient(t, d).OpenBlob(ctx, b.ID())
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
	if _, after := mem.BatchOps(); after != batches {
		t.Errorf("a 4-block read took %d batched metadata fetches, want none", after-batches)
	}
	if err := walkAgrees(mem, s); err != nil {
		t.Error(err)
	}
}

// TestReadSendsNoMetadataCall pins the point of placements in the
// descriptors: a pin is one Latest call at the version manager, and a
// read after it, cold or warm, by the pinning client or by the one that
// wrote the blocks, reaches the metadata store not at all — where the
// tree walk pays a round trip per level.
func TestReadSendsNoMetadataCall(t *testing.T) {
	poisonReleased(t)
	mem := mdtree.NewMemStore()
	d := startMini(t, 2, mem)
	ctx := context.Background()
	b, err := pinClient(t, d).CreateBlob(ctx, pinBS, 1)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, b, 0, blocksOf('a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'))
	mustWrite(t, b, 3, blocksOf('D'))
	mustWrite(t, b, 4, blocksOf('E'))
	want := blocksOf('a', 'b', 'c', 'D', 'E', 'f', 'g', 'h')

	rb, err := pinClient(t, d).OpenBlob(ctx, b.ID())
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
	ws, err := b.Latest(ctx) // the writer's own pin
	if err != nil {
		t.Fatal(err)
	}

	// Three blocks, unaligned, across both overwrites.
	off, buf := 2*pinBS+100, make([]byte, 2*pinBS+200)
	for i, s := range []*Snapshot{s, s, ws} {
		_, b0 := mem.BatchOps()
		_, n0 := mem.Ops()
		if _, err := s.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want[off:off+int64(len(buf))]) {
			t.Fatal("wrong bytes")
		}
		if _, b1 := mem.BatchOps(); b1 != b0 {
			t.Errorf("read %d of 3 blocks: %d metadata batches, want none", i, b1-b0)
		}
		if _, n1 := mem.Ops(); n1 != n0 {
			t.Errorf("read %d of 3 blocks: %d metadata gets, want none", i, n1-n0)
		}
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

// TestBlobStateTableIsBounded: the per-blob cache holds maxBlobStates
// blobs, the least recently used goes first, and nothing that still
// holds a dropped state — or comes back to the blob — notices.
func TestBlobStateTableIsBounded(t *testing.T) {
	d := startMini(t, 2, mdtree.NewMemStore())
	c := pinClient(t, d)
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

// stampedBlocks returns n blocks in which every aligned 8-byte word
// holds its own offset, so a byte of the wrong block is a mismatch
// wherever it lands.
func stampedBlocks(n int) []byte {
	d := make([]byte, int64(n)*pinBS)
	for off := 0; off < len(d); off += 8 {
		binary.LittleEndian.PutUint64(d[off:], uint64(off))
	}
	return d
}

// TestStreamReadersSeekAcrossBlocks runs two readers of one snapshot,
// each moved by two goroutines of a fresh client: reads and seeks cross
// block and readahead edges while block fetches are in flight, and the
// first goroutine done closes its reader under the other. Released
// buffers and records are scribbled over (wire.PoisonReleased), and
// every byte read is checked against the stamp of its offset.
func TestStreamReadersSeekAcrossBlocks(t *testing.T) {
	poisonReleased(t)
	const blocks = 48
	d := startMini(t, 3, mdtree.NewMemStore())
	ctx := context.Background()
	w, err := pinClient(t, d).CreateBlob(ctx, pinBS, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := stampedBlocks(blocks)
	if _, err := w.Append(ctx, data); err != nil {
		t.Fatal(err)
	}
	for round := uint64(0); round < 6; round++ {
		b, err := pinClient(t, d).OpenBlob(ctx, w.ID())
		if err != nil {
			t.Fatal(err)
		}
		s, err := b.Latest(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for k := uint64(0); k < 2; k++ {
			r := s.NewReader(ctx, ReaderOptions{Readahead: 3})
			var once sync.Once
			for h := uint64(0); h < 2; h++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					defer once.Do(func() { r.Close() })
					if err := readAcrossEdges(r, rand.New(rand.NewPCG(seed, 50)), data); err != nil {
						t.Error(err)
					}
				}(100*round + 10*k + h)
			}
		}
		wg.Wait()
	}
}

// readAcrossEdges reads r in 8-byte multiples and seeks it, now and
// then, to near the edge of a run of 4 blocks, checking each Read
// against the stamp it starts with: another goroutine moves r too. A
// reader closed under it ends the run.
func readAcrossEdges(r io.ReadSeeker, rng *rand.Rand, data []byte) error {
	const run = 4 * pinBS
	size := int64(len(data))
	p := make([]byte, pinBS+8)
	for step := 0; step < 40; step++ {
		n, err := r.Read(p[:8*(1+rng.IntN(len(p)/8))])
		if errors.Is(err, stream.ErrReaderClosed) {
			return nil
		}
		if err != nil && err != io.EOF {
			return err
		}
		if n > 0 {
			at := int64(binary.LittleEndian.Uint64(p))
			if n%8 != 0 || at%8 != 0 || at+int64(n) > size || !bytes.Equal(p[:n], data[at:at+int64(n)]) {
				return errors.New("a stream read returned bytes that are no range of the blob")
			}
		}
		if rng.IntN(4) == 0 { // to within a block of some run's edge
			edge := rng.Int64N(size/run+1) * run
			off := min(max(edge+(rng.Int64N(2*pinBS/8)-pinBS/8)*8, 0), size-8)
			if _, err := r.Seek(off, io.SeekStart); errors.Is(err, stream.ErrReaderClosed) {
				return nil
			} else if err != nil {
				return err
			}
		}
	}
	return nil
}
