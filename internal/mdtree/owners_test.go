package mdtree

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/util"
)

// The invariant under test is the versioning contract seen from the
// metadata: a reader of snapshot v sees exactly the writes <= v that
// were not aborted. The tree walk (Resolve) is the reference;
// Owners.Resolve must build, from the descriptors alone, each block the
// walk's leaf holds — key, providers, length — and, where the walk
// reaches an aborted version's leaf, the block the snapshot before that
// version read there (reference). This is the proof that a reader loses
// nothing by reading no leaf.

const eqBS = 8 // block size of the equivalence harness

// aborted records a version whose writer died: the descriptor, which
// carries the placement its writer sent, is marked aborted, and the
// reference tree the walk reads gets leaves without providers for it.
// Production stores no tree for an aborted version, or part of one;
// the index must name none of its blocks either way.
func (th *treeHarness) aborted(off, n int64) error {
	th.nonce++
	v := th.h.Latest() + 1
	size := max(th.h.SizeAt(th.h.Latest()), off+n)
	d := blob.WriteDesc{Version: v, Off: off, Len: n, SizeAfter: size, Nonce: th.nonce, Aborted: true, Replicas: th.placement(blob.Blocks(n, th.meta.BlockSize))}
	if err := th.h.Append(d); err != nil {
		return err
	}
	refs := make([]BlockRef, blob.Blocks(n, th.meta.BlockSize))
	for i := range refs {
		refs[i] = BlockRef{Key: blob.BlockKey{Blob: 1, Nonce: th.nonce, Seq: uint32(i)}, Len: min(th.meta.BlockSize, n-int64(i)*th.meta.BlockSize)}
	}
	_, err := Build(context.Background(), th.st, th.meta, th.h, v, refs)
	return err
}

// applyOps grows a history from an op stream, three bytes an op: what
// kind of write, where, how long. Every write obeys the version
// manager's rules (aligned offset, a partial block only at or past EOF).
//
//	0 append at the block-aligned end (a partial tail is allowed)
//	1 overwrite whole blocks inside the blob (may run past EOF)
//	2 write past EOF, leaving an interior hole: the root span grows and
//	  older subtrees are bridged
//	3 a write as in 0 or 1 whose writer died: aborted
func applyOps(th *treeHarness, ops []byte) error {
	for ; len(ops) >= 3; ops = ops[3:] {
		kind, a, b := ops[0]%4, int64(ops[1]), int64(ops[2])
		blocks := blob.Blocks(th.h.SizeAt(th.h.Latest()), eqBS)
		off, n := blocks*eqBS, 1+b%(3*eqBS)
		switch {
		case kind == 2:
			off += (1 + a%5) * eqBS
		case blocks > 0 && (kind == 1 || (kind == 3 && a%2 == 1)):
			off, n = (a%blocks)*eqBS, (1+b%3)*eqBS
		}
		var err error
		if kind == 3 {
			err = th.aborted(off, n)
		} else {
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(th.h.Latest()) + 1
			}
			err = th.write(off, data)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// reference is what the walk of snapshot v reads over r, with what an
// aborted write stored taken back out: where the walk reaches the leaf
// of an aborted version w, the block read there is the one the walk at
// w-1 reads, repeated until a leaf of a version that was not aborted,
// or a hole.
func (th *treeHarness) reference(v blob.Version, size int64, r blob.Range) []Extent {
	th.t.Helper()
	ext, err := Resolve(context.Background(), th.st, th.meta, v, size, r)
	if err != nil {
		th.t.Fatalf("walk of v%d %v: %v", v, r, err)
	}
	for i, e := range ext {
		w := th.abortedOwner(e)
		if w == blob.NoVersion {
			continue
		}
		// e lies in one block: read it at w-1 from the block's start,
		// which that snapshot may end inside of.
		start := e.FileOff - e.DataOff
		under := th.reference(w-1, th.h.SizeAt(w-1), blob.Range{Off: start, Len: e.FileOff + e.Len - start})
		if len(under) > 0 && under[0].HasData {
			ext[i].Block = under[0].Block
		} else {
			ext[i] = Extent{FileOff: e.FileOff, Len: e.Len}
		}
	}
	return coalesceHoles(ext)
}

// abortedOwner returns the aborted version whose leaf e is, or
// NoVersion.
func (th *treeHarness) abortedOwner(e Extent) blob.Version {
	if !e.HasData {
		return blob.NoVersion
	}
	for _, d := range th.h.Descs {
		if d.Aborted && d.Nonce == e.Block.Key.Nonce {
			return d.Version
		}
	}
	return blob.NoVersion
}

// coalesceHoles merges adjacent hole extents: the walk splits a run of
// never-written blocks along subtree boundaries, Owners.Resolve returns
// it whole (the only difference the two are allowed).
func coalesceHoles(in []Extent) []Extent {
	var out []Extent
	for _, e := range in {
		if n := len(out); n > 0 && !e.HasData && !out[n-1].HasData && out[n-1].FileOff+out[n-1].Len == e.FileOff {
			out[n-1].Len += e.Len
			continue
		}
		out = append(out, e)
	}
	return out
}

// checkEquivalence builds the history ops describes, at replication 2,
// and compares the two resolves — the blocks the index builds from the
// descriptors and the leaves the walk reads (reference) — at every
// version over the whole snapshot, every single block and the ranges
// queries names (two bytes each: offset, length).
func checkEquivalence(t *testing.T, ops, queries []byte) {
	t.Helper()
	th := newHarness(t, eqBS)
	th.meta.Replication = 2
	if err := applyOps(th, ops); err != nil {
		t.Fatalf("ops %v: %v", ops, err)
	}
	// The index is extended the way a reader's pins extend it: in runs.
	var o Owners
	half := th.h.Len() / 2
	if err := o.Extend(th.meta, th.h.Descs[:half]); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Resolve(th.meta, th.h.Latest(), 1, blob.Range{Len: 1}, new(Scratch)); half < th.h.Len() && err == nil {
		t.Fatalf("index through version %d resolved version %d", half, th.h.Latest())
	}
	if err := o.Extend(th.meta, th.h.Descs); err != nil { // overlaps the first run
		t.Fatal(err)
	}
	if o.Through() != th.h.Latest() {
		t.Fatalf("index through %d, history has %d versions", o.Through(), th.h.Latest())
	}
	for v := blob.Version(1); v <= th.h.Latest(); v++ {
		size := th.h.SizeAt(v)
		ranges := []blob.Range{{Off: 0, Len: size}, {Off: size - 1, Len: 5}}
		for off := int64(0); off < size; off += eqBS {
			ranges = append(ranges, blob.Range{Off: off, Len: eqBS})
		}
		for q := queries; len(q) >= 2; q = q[2:] {
			ranges = append(ranges, blob.Range{Off: int64(q[0]) % (size + 3), Len: int64(q[1])})
		}
		for _, r := range ranges {
			want := th.reference(v, size, r)
			got, err := o.Resolve(th.meta, v, size, r, new(Scratch))
			if err != nil {
				t.Fatalf("ops %v v%d %v: %v", ops, v, r, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ops %v v%d %v:\n direct %+v\n   walk %+v", ops, v, r, got, want)
			}
		}
	}
}

// equivalenceTable names the shapes the property must cover; the fuzz
// target starts from them.
var equivalenceTable = []struct {
	name         string
	ops, queries []byte
}{
	{"one append", []byte{0, 0, 7}, []byte{0, 3, 5, 9}},
	{"appends with a partial tail", []byte{0, 0, 7, 0, 0, 11, 0, 0, 2}, []byte{3, 20, 9, 1}},
	{"overwrites of one block", []byte{0, 0, 23, 1, 1, 0, 1, 1, 0, 1, 1, 0}, []byte{8, 8, 7, 10}},
	{"overwrite running past EOF", []byte{0, 0, 15, 1, 1, 2}, []byte{0, 40}},
	{"root growth bridges old subtrees", []byte{0, 0, 7, 2, 4, 0, 2, 4, 9, 1, 0, 0}, []byte{0, 255, 60, 30}},
	{"interior hole filled later", []byte{0, 0, 7, 2, 2, 7, 1, 1, 1, 1, 2, 0}, []byte{4, 30, 8, 24}},
	{"aborted append, then appends", []byte{0, 0, 7, 3, 0, 15, 0, 0, 7}, []byte{0, 60, 9, 9}},
	{"aborted overwrite under later writes", []byte{0, 0, 31, 3, 1, 1, 1, 1, 0, 3, 3, 2}, []byte{0, 40, 8, 16}},
	{"hole only", []byte{2, 3, 0}, []byte{0, 200, 17, 2}},
	// v1 writes the block, v2 overwrites it, v3 aborts an overwrite and
	// v4 overwrites it again: its newest writer and two earlier ones.
	{"overwritten, aborted, overwritten", []byte{0, 0, 7, 1, 0, 0, 3, 1, 0, 1, 0, 0}, []byte{0, 8, 3, 2}},
}

func TestResolveEquivalenceTable(t *testing.T) {
	for _, c := range equivalenceTable {
		t.Run(c.name, func(t *testing.T) { checkEquivalence(t, c.ops, c.queries) })
	}
}

// TestResolveEquivalenceRandomHistories is the property test: random
// op streams, random ranges, both resolves at every version.
func TestResolveEquivalenceRandomHistories(t *testing.T) {
	for seed := uint64(1); seed <= 150; seed++ {
		rng := util.NewSplitMix64(seed)
		ops := make([]byte, 3*(1+rng.Intn(14)))
		queries := make([]byte, 12)
		for i := range ops {
			ops[i] = byte(rng.Next())
		}
		for i := range queries {
			queries[i] = byte(rng.Next())
		}
		checkEquivalence(t, ops, queries)
	}
}

// TestOwnersExtendedWhileRead: pins extend a blob's index while that
// client's older snapshots read through it; a read of version v must not
// see an extension, whole or half done.
func TestOwnersExtendedWhileRead(t *testing.T) {
	th := newHarness(t, eqBS)
	const versions = 200
	for v := 0; v < versions; v++ { // every version overwrites block v%4 of 4
		if v == 0 {
			if err := th.write(0, make([]byte, 4*eqBS)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := th.write(int64(v%4)*eqBS, bytes.Repeat([]byte{byte(v)}, eqBS)); err != nil {
			t.Fatal(err)
		}
	}
	var o Owners
	if err := o.Extend(th.meta, th.h.Descs[:8]); err != nil {
		t.Fatal(err)
	}
	want, err := o.Resolve(th.meta, 8, 4*eqBS, blob.Range{Len: 4 * eqBS}, new(Scratch))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o.Through() < versions {
				got, err := o.Resolve(th.meta, 8, 4*eqBS, blob.Range{Len: 4 * eqBS}, new(Scratch))
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("version 8 resolved differently while the index grew: %v", err)
					return
				}
			}
		}()
	}
	for n := 9; n <= versions; n++ {
		if err := o.Extend(th.meta, th.h.Descs[n-3:n]); err != nil { // overlapping runs, as racing pins deliver them
			t.Error(err)
		}
	}
	wg.Wait()
}

// TestExtendAllocations: pinning a file that wrote each block once
// costs the index's growth, not an allocation per block.
func TestExtendAllocations(t *testing.T) {
	const blocks = 1024
	m := blob.Meta{ID: 1, BlockSize: eqBS, Replication: 1}
	descs := make([]blob.WriteDesc, blocks)
	for i := range descs {
		off := int64(i) * eqBS
		descs[i] = blob.WriteDesc{Version: blob.Version(i + 1), Off: off, Len: eqBS, SizeAfter: off + eqBS, Nonce: uint64(i + 1), Replicas: []string{"p0"}}
	}
	n := testing.AllocsPerRun(20, func() {
		var o Owners
		if err := o.Extend(m, descs); err != nil || o.Through() != blocks {
			t.Fatalf("Extend: %v, through %d", err, o.Through())
		}
	})
	if n > 40 {
		t.Errorf("Extend of %d one-block writes allocates %v times, want at most 40", blocks, n)
	}
}

func FuzzResolveEquivalence(f *testing.F) {
	for _, c := range equivalenceTable {
		f.Add(c.ops, c.queries)
	}
	f.Fuzz(func(t *testing.T, ops, queries []byte) {
		if len(ops) > 3*24 || len(queries) > 16 {
			t.Skip("a longer history adds time, not shapes")
		}
		checkEquivalence(t, ops, queries)
	})
}

// FuzzDecodeNode: a node value is bytes off the network. Decoding must
// fail cleanly or yield a node that encodes back to what decodes the
// same.
func FuzzDecodeNode(f *testing.F) {
	id := NodeID{Blob: 1, Version: 2, Off: 64, Span: 64}
	f.Add(EncodeNode(Node{ID: id, Left: ChildRef{Version: 1}, Right: ChildRef{Version: 2}}))
	f.Add(EncodeNode(Node{ID: id, Leaf: true, Block: BlockRef{
		Key: blob.BlockKey{Blob: 1, Nonce: 9, Seq: 3}, Providers: []string{"p0", "p1"}, Len: 64}}))
	f.Add(EncodeNode(Node{ID: id, Leaf: true})) // a leaf with no providers
	f.Add([]byte{1, 0, 0})
	f.Fuzz(func(t *testing.T, val []byte) {
		n, err := DecodeNode(id, val)
		if err != nil {
			return
		}
		again, err := DecodeNode(id, EncodeNode(n))
		if err != nil {
			t.Fatalf("re-decode of %+v: %v", n, err)
		}
		if again.Leaf != n.Leaf || again.Left != n.Left || again.Right != n.Right ||
			again.Block.Key != n.Block.Key || again.Block.Len != n.Block.Len ||
			fmt.Sprint(again.Block.Providers) != fmt.Sprint(n.Block.Providers) {
			t.Fatalf("round trip changed the node: %+v -> %+v", n, again)
		}
		if n.Leaf && !bytes.Equal(EncodeNode(n), EncodeNode(again)) {
			t.Fatalf("encoding of %+v is not stable", n)
		}
	})
}

// BenchmarkResolveOneBlock resolves one block of a random snapshot on
// the worst block there is: one that every version of the history
// overwrote. The cost must not grow with the history (1,024 times the
// versions: a few more steps of a binary search).
func BenchmarkResolveOneBlock(b *testing.B) {
	m := blob.Meta{ID: 1, BlockSize: eqBS, Replication: 1}
	for _, versions := range []int{64, 65536} {
		var o Owners
		descs := make([]blob.WriteDesc, versions)
		for i := range descs {
			descs[i] = blob.WriteDesc{Version: blob.Version(i + 1), Off: 0, Len: eqBS, SizeAfter: eqBS, Replicas: []string{"p0"}}
		}
		if err := o.Extend(m, descs); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("V=%d", versions), func(b *testing.B) {
			rng := util.NewSplitMix64(1)
			for i := 0; i < b.N; i++ {
				v := blob.Version(1 + rng.Intn(versions))
				ext, err := o.Resolve(m, v, eqBS, blob.Range{Len: eqBS}, new(Scratch))
				if err != nil || len(ext) != 1 {
					b.Fatal(ext, err)
				}
			}
		})
	}
}

// TestColdResolveAllocatesNothing: a resolve into a kept Scratch
// allocates nothing of its own — no extents, and no provider list, which
// it shares with the descriptor — and reads no node: it is handed no
// store.
func TestColdResolveAllocatesNothing(t *testing.T) {
	m := blob.Meta{ID: 1, BlockSize: eqBS, Replication: 2}
	replicas := make([]string, 2*64)
	for i := range replicas {
		replicas[i] = fmt.Sprintf("p%d", i%5)
	}
	var o Owners
	if err := o.Extend(m, []blob.WriteDesc{{Version: 1, Len: 64 * eqBS, SizeAfter: 64 * eqBS, Replicas: replicas}}); err != nil {
		t.Fatal(err)
	}
	var sc Scratch
	i := 0
	resolve := func() {
		i = (i + 7) % 61
		r := blob.Range{Off: int64(i)*eqBS + eqBS/2, Len: 2 * eqBS}
		ext, err := o.Resolve(m, 1, 64*eqBS, r, &sc)
		if err != nil || len(ext) != 3 || ext[1].Block.Len != eqBS || ext[1].Block.Providers[1] != replicas[2*(i+1)+1] {
			t.Fatalf("Resolve(%v) = %v, %v; want 3 data extents", r, ext, err)
		}
	}
	for range 64 {
		resolve() // the scratch grown
	}
	if n := testing.AllocsPerRun(100, resolve); n != 0 {
		t.Errorf("a 3-block resolve allocates %v times", n)
	}
}
