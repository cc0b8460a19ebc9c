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
// metadata: a reader of snapshot v sees exactly the writes <= v. The
// tree walk (Resolve) is the reference; Owners.Resolve must build, from
// the descriptors alone, each block the walk's leaf holds — key,
// providers, length — and read an aborted version's blocks as zeros, as
// the walk of the harness's reference tree does. This is the proof that
// a reader loses nothing by reading no leaf.

const eqBS = 8 // block size of the equivalence harness

// aborted records a version whose writer died: the descriptor, which
// carries the placement its writer sent, is marked aborted, and the
// reference tree the walk reads gets leaves without providers for it,
// which read as zeros. Production stores no tree for an aborted
// version; the index must read its blocks as holes all the same.
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

// emptyLeavesAsHoles turns the extents of leaves without providers, the
// reference tree's aborted blocks, into holes: both read as zeros.
func emptyLeavesAsHoles(in []Extent) []Extent {
	for i, e := range in {
		if e.HasData && len(e.Block.Providers) == 0 {
			in[i] = Extent{FileOff: e.FileOff, Len: e.Len}
		}
	}
	return in
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
// descriptors and the leaves the walk reads — at every version over the
// whole snapshot, every single block and the ranges queries names (two
// bytes each: offset, length).
func checkEquivalence(t *testing.T, ops, queries []byte) {
	t.Helper()
	ctx := context.Background()
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
			want, werr := Resolve(ctx, th.st, th.meta, v, size, r)
			got, gerr := o.Resolve(th.meta, v, size, r, new(Scratch))
			if werr != nil || gerr != nil {
				t.Fatalf("ops %v v%d %v: walk err %v, direct err %v", ops, v, r, werr, gerr)
			}
			if want = coalesceHoles(emptyLeavesAsHoles(want)); !reflect.DeepEqual(got, want) {
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
