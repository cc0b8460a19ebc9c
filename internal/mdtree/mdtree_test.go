package mdtree

import (
	"context"
	"fmt"
	"testing"

	"blobseer/internal/blob"
)

const B = 64 // block size used throughout these tests

func meta() blob.Meta { return blob.Meta{ID: 1, BlockSize: B, Replication: 1} }

// refs builds n BlockRefs for a write identified by nonce; the last
// block holds lastLen bytes (B if lastLen == 0).
func refs(nonce uint64, n int, lastLen int64) []BlockRef {
	out := make([]BlockRef, n)
	for i := range out {
		ln := int64(B)
		if i == n-1 && lastLen != 0 {
			ln = lastLen
		}
		out[i] = BlockRef{
			Key:       blob.BlockKey{Blob: 1, Nonce: nonce, Seq: uint32(i)},
			Providers: []string{"p1"},
			Len:       ln,
		}
	}
	return out
}

func mustAppend(t testing.TB, h *blob.History, d blob.WriteDesc) {
	t.Helper()
	if err := h.Append(d); err != nil {
		t.Fatal(err)
	}
}

// TestFigure1Scenario replays the exact metadata evolution of the
// paper's Figure 1: (a) append four blocks to an empty BLOB,
// (b) overwrite the first two blocks, (c) append one more block.
func TestFigure1Scenario(t *testing.T) {
	ctx := context.Background()
	st := NewMemStore()
	h := &blob.History{}

	// (a) append 4 blocks: the full binary tree over [0,4B) appears.
	mustAppend(t, h, blob.WriteDesc{Version: 1, Off: 0, Len: 4 * B, SizeAfter: 4 * B, Kind: blob.KindAppend})
	n, err := Build(ctx, st, meta(), h, 1, refs(0xa1, 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 { // 4 leaves + 2 inner + root
		t.Errorf("(a) created %d nodes, want 7", n)
	}
	for _, id := range []NodeID{
		{1, 1, 0, 4 * B}, {1, 1, 0, 2 * B}, {1, 1, 2 * B, 2 * B},
		{1, 1, 0, B}, {1, 1, B, B}, {1, 1, 2 * B, B}, {1, 1, 3 * B, B},
	} {
		if !st.Has(id) {
			t.Errorf("(a) missing node %s", id.Key())
		}
	}

	// (b) overwrite the first two blocks: new root, new left subtree;
	// the right subtree of version 1 is shared, not copied.
	mustAppend(t, h, blob.WriteDesc{Version: 2, Off: 0, Len: 2 * B, SizeAfter: 4 * B})
	n, err = Build(ctx, st, meta(), h, 2, refs(0xa2, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 { // root + (0,2B) inner + 2 leaves
		t.Errorf("(b) created %d nodes, want 4", n)
	}
	root2, err := st.Get(ctx, NodeID{1, 2, 0, 4 * B})
	if err != nil {
		t.Fatal(err)
	}
	if root2.Left.Version != 2 || root2.Right.Version != 1 {
		t.Errorf("(b) root children = %d/%d, want 2/1 (right subtree shared with v1)", root2.Left.Version, root2.Right.Version)
	}
	if st.Has(NodeID{1, 2, 2 * B, 2 * B}) {
		t.Error("(b) version 2 needlessly copied the shared right subtree")
	}

	// (c) append one block: the root span doubles from 4B to 8B; the
	// new root borrows the whole previous tree as its left child.
	mustAppend(t, h, blob.WriteDesc{Version: 3, Off: 4 * B, Len: B, SizeAfter: 5 * B, Kind: blob.KindAppend})
	n, err = Build(ctx, st, meta(), h, 3, refs(0xa3, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 { // root(0,8B) + (4B,4B) + (4B,2B) + leaf(4B,B)
		t.Errorf("(c) created %d nodes, want 4", n)
	}
	root3, err := st.Get(ctx, NodeID{1, 3, 0, 8 * B})
	if err != nil {
		t.Fatal(err)
	}
	if root3.Left.Version != 2 {
		t.Errorf("(c) left child version = %d, want 2 (previous root shared)", root3.Left.Version)
	}
	if root3.Right.Version != 3 {
		t.Errorf("(c) right child version = %d, want 3", root3.Right.Version)
	}
	right, err := st.Get(ctx, NodeID{1, 3, 4 * B, 4 * B})
	if err != nil {
		t.Fatal(err)
	}
	if !right.Left.Present() {
		t.Error("(c) subtree holding the appended block missing")
	}
	if right.Right.Present() {
		t.Error("(c) unwritten region [6B,8B) should be absent")
	}
}

func TestBuildValidation(t *testing.T) {
	ctx := context.Background()
	st := NewMemStore()
	h := &blob.History{}
	mustAppend(t, h, blob.WriteDesc{Version: 1, Off: 10, Len: B, SizeAfter: 10 + B})
	if _, err := Build(ctx, st, meta(), h, 1, refs(1, 1, 0)); err == nil {
		t.Error("unaligned offset accepted")
	}
	h2 := &blob.History{}
	mustAppend(t, h2, blob.WriteDesc{Version: 1, Off: 0, Len: 2 * B, SizeAfter: 2 * B})
	if _, err := Build(ctx, st, meta(), h2, 1, refs(1, 1, 0)); err == nil {
		t.Error("wrong block-ref count accepted")
	}
	if _, err := Build(ctx, st, meta(), h2, 9, nil); err == nil {
		t.Error("unknown version accepted")
	}
}

func TestPartialFinalBlock(t *testing.T) {
	ctx := context.Background()
	st := NewMemStore()
	h := &blob.History{}
	// 1.5 blocks written: leaf 1 stores B/2 bytes.
	mustAppend(t, h, blob.WriteDesc{Version: 1, Off: 0, Len: B + B/2, SizeAfter: B + B/2, Kind: blob.KindAppend})
	if _, err := Build(ctx, st, meta(), h, 1, refs(7, 2, B/2)); err != nil {
		t.Fatal(err)
	}
	ext, err := Resolve(ctx, st, meta(), 1, B+B/2, blob.Range{Off: 0, Len: 2 * B})
	if err != nil {
		t.Fatal(err)
	}
	// Read is clamped to size: extents must cover exactly [0, 1.5B).
	var total int64
	for _, e := range ext {
		total += e.Len
	}
	if total != B+B/2 {
		t.Errorf("resolved %d bytes, want %d", total, B+B/2)
	}
	last := ext[len(ext)-1]
	if !last.HasData || last.Block.Len != B/2 {
		t.Errorf("final extent = %+v", last)
	}
}

func TestSparseWriteLeavesHoles(t *testing.T) {
	ctx := context.Background()
	st := NewMemStore()
	h := &blob.History{}
	// Write block 3 only of an empty blob: blocks 0-2 are holes.
	mustAppend(t, h, blob.WriteDesc{Version: 1, Off: 3 * B, Len: B, SizeAfter: 4 * B})
	if _, err := Build(ctx, st, meta(), h, 1, refs(9, 1, 0)); err != nil {
		t.Fatal(err)
	}
	ext, err := Resolve(ctx, st, meta(), 1, 4*B, blob.Range{Off: 0, Len: 4 * B})
	if err != nil {
		t.Fatal(err)
	}
	dataBytes, holeBytes := int64(0), int64(0)
	for _, e := range ext {
		if e.HasData {
			dataBytes += e.Len
		} else {
			holeBytes += e.Len
		}
	}
	if dataBytes != B || holeBytes != 3*B {
		t.Errorf("data=%d holes=%d, want %d/%d", dataBytes, holeBytes, B, 3*B)
	}
}

func TestBridgeNodesOnLargeSpanGrowth(t *testing.T) {
	// Version 1 writes one block (span B). Version 2 appends at block 4
	// (span grows 8x). The borrowed left spine requires bridge nodes at
	// version 2 for ranges [0,4B) and [0,2B) that v1's tiny tree never
	// had, even though v2's write does not touch them.
	ctx := context.Background()
	st := NewMemStore()
	h := &blob.History{}
	mustAppend(t, h, blob.WriteDesc{Version: 1, Off: 0, Len: B, SizeAfter: B, Kind: blob.KindAppend})
	if _, err := Build(ctx, st, meta(), h, 1, refs(1, 1, 0)); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, h, blob.WriteDesc{Version: 2, Off: 4 * B, Len: 4 * B, SizeAfter: 8 * B})
	if _, err := Build(ctx, st, meta(), h, 2, refs(2, 4, 0)); err != nil {
		t.Fatal(err)
	}
	for _, id := range []NodeID{{1, 2, 0, 4 * B}, {1, 2, 0, 2 * B}} {
		if !st.Has(id) {
			t.Errorf("missing bridge node %s", id.Key())
		}
	}
	bridge, err := st.Get(ctx, NodeID{1, 2, 0, 2 * B})
	if err != nil {
		t.Fatal(err)
	}
	if bridge.Left.Version != 1 {
		t.Errorf("bridge left child = %d, want 1", bridge.Left.Version)
	}
	if bridge.Right.Present() {
		t.Error("bridge right child should be a hole")
	}
	// The whole blob must resolve: 1 data block, 3 hole blocks, 4 data.
	ext, err := Resolve(ctx, st, meta(), 2, 8*B, blob.Range{Off: 0, Len: 8 * B})
	if err != nil {
		t.Fatal(err)
	}
	var data, holes int64
	for _, e := range ext {
		if e.HasData {
			data += e.Len
		} else {
			holes += e.Len
		}
	}
	if data != 5*B || holes != 3*B {
		t.Errorf("data=%d holes=%d", data, holes)
	}
}

func TestConcurrentWeavingAgainstInProgressWriter(t *testing.T) {
	// The paper's key concurrency property: version 3's writer can
	// build its metadata referencing version 2's nodes *before* version
	// 2 has stored them, because node identity is deterministic.
	ctx := context.Background()
	st := NewMemStore()
	h := &blob.History{}
	mustAppend(t, h, blob.WriteDesc{Version: 1, Off: 0, Len: 4 * B, SizeAfter: 4 * B, Kind: blob.KindAppend})
	if _, err := Build(ctx, st, meta(), h, 1, refs(1, 4, 0)); err != nil {
		t.Fatal(err)
	}
	// Descriptors for versions 2 and 3 are assigned (the VM hint), but
	// version 2's metadata is NOT built yet.
	mustAppend(t, h, blob.WriteDesc{Version: 2, Off: 0, Len: B, SizeAfter: 4 * B})
	mustAppend(t, h, blob.WriteDesc{Version: 3, Off: B, Len: B, SizeAfter: 4 * B})

	if _, err := Build(ctx, st, meta(), h, 3, refs(3, 1, 0)); err != nil {
		t.Fatal(err)
	}
	root3, err := st.Get(ctx, NodeID{1, 3, 0, 4 * B})
	if err != nil {
		t.Fatal(err)
	}
	if root3.Left.Version != 3 {
		t.Fatalf("root3 left = %d", root3.Left.Version)
	}
	inner3, err := st.Get(ctx, NodeID{1, 3, 0, 2 * B})
	if err != nil {
		t.Fatal(err)
	}
	// Version 3's tree must point at version 2's (not yet existing!)
	// leaf for block 0.
	if inner3.Left.Version != 2 {
		t.Fatalf("woven reference = %d, want 2", inner3.Left.Version)
	}
	// Now version 2 finishes; the dangling reference becomes readable.
	if _, err := Build(ctx, st, meta(), h, 2, refs(2, 1, 0)); err != nil {
		t.Fatal(err)
	}
	ext, err := Resolve(ctx, st, meta(), 3, 4*B, blob.Range{Off: 0, Len: 4 * B})
	if err != nil {
		t.Fatal(err)
	}
	if len(ext) == 0 {
		t.Fatal("no extents")
	}
	if ext[0].Block.Key.Nonce != 2 { // block 0 owned by version 2
		t.Errorf("block 0 from nonce %x, want 2", ext[0].Block.Key.Nonce)
	}
	if ext[1].Block.Key.Nonce != 3 { // block 1 owned by version 3
		t.Errorf("block 1 from nonce %x, want 3", ext[1].Block.Key.Nonce)
	}
}

func TestResolveUnalignedSubBlockRange(t *testing.T) {
	ctx := context.Background()
	st := NewMemStore()
	h := &blob.History{}
	mustAppend(t, h, blob.WriteDesc{Version: 1, Off: 0, Len: 4 * B, SizeAfter: 4 * B, Kind: blob.KindAppend})
	if _, err := Build(ctx, st, meta(), h, 1, refs(1, 4, 0)); err != nil {
		t.Fatal(err)
	}
	// Read 10 bytes straddling the boundary of blocks 1 and 2.
	ext, err := Resolve(ctx, st, meta(), 1, 4*B, blob.Range{Off: 2*B - 5, Len: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(ext) != 2 {
		t.Fatalf("extents = %d, want 2", len(ext))
	}
	if ext[0].FileOff != 2*B-5 || ext[0].Len != 5 || ext[0].DataOff != B-5 {
		t.Errorf("first extent = %+v", ext[0])
	}
	if ext[1].FileOff != 2*B || ext[1].Len != 5 || ext[1].DataOff != 0 {
		t.Errorf("second extent = %+v", ext[1])
	}
}

func TestResolveOldVersionUnaffectedByNewWrites(t *testing.T) {
	ctx := context.Background()
	st := NewMemStore()
	h := &blob.History{}
	mustAppend(t, h, blob.WriteDesc{Version: 1, Off: 0, Len: 2 * B, SizeAfter: 2 * B, Kind: blob.KindAppend})
	if _, err := Build(ctx, st, meta(), h, 1, refs(1, 2, 0)); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, h, blob.WriteDesc{Version: 2, Off: 0, Len: 2 * B, SizeAfter: 2 * B})
	if _, err := Build(ctx, st, meta(), h, 2, refs(2, 2, 0)); err != nil {
		t.Fatal(err)
	}
	ext, err := Resolve(ctx, st, meta(), 1, 2*B, blob.Range{Off: 0, Len: 2 * B})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ext {
		if e.Block.Key.Nonce != 1 {
			t.Errorf("version 1 read sees nonce %x", e.Block.Key.Nonce)
		}
	}
}

func TestResolveEmptyAndClampedRanges(t *testing.T) {
	ctx := context.Background()
	st := NewMemStore()
	if ext, err := Resolve(ctx, st, meta(), blob.NoVersion, 0, blob.Range{Off: 0, Len: 10}); err != nil || ext != nil {
		t.Errorf("empty blob resolve = %v, %v", ext, err)
	}
	h := &blob.History{}
	mustAppend(t, h, blob.WriteDesc{Version: 1, Off: 0, Len: B, SizeAfter: B, Kind: blob.KindAppend})
	if _, err := Build(ctx, st, meta(), h, 1, refs(1, 1, 0)); err != nil {
		t.Fatal(err)
	}
	// Read entirely past EOF.
	if ext, err := Resolve(ctx, st, meta(), 1, B, blob.Range{Off: 2 * B, Len: 10}); err != nil || len(ext) != 0 {
		t.Errorf("past-EOF resolve = %v, %v", ext, err)
	}
	if _, err := Resolve(ctx, st, meta(), 1, B, blob.Range{Off: -1, Len: 10}); err == nil {
		t.Error("negative offset accepted")
	}
}

func TestPlanNodesMatchesBuild(t *testing.T) {
	ctx := context.Background()
	st := NewMemStore()
	h := &blob.History{}
	mustAppend(t, h, blob.WriteDesc{Version: 1, Off: 0, Len: 3 * B, SizeAfter: 3 * B, Kind: blob.KindAppend})
	ids, err := PlanNodes(meta(), h, 1)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Build(ctx, st, meta(), h, 1, refs(1, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != n {
		t.Fatalf("plan %d nodes, build created %d", len(ids), n)
	}
	for _, id := range ids {
		if !st.Has(id) {
			t.Errorf("planned node %s not built", id.Key())
		}
	}
}

func TestNodeCodecRoundTrip(t *testing.T) {
	leaf := Node{
		ID:   NodeID{Blob: 3, Version: 9, Off: 128, Span: 64},
		Leaf: true,
		Block: BlockRef{
			Key:       blob.BlockKey{Blob: 3, Nonce: 0xdead, Seq: 2},
			Providers: []string{"p1", "p2"},
			Len:       40,
		},
	}
	got, err := DecodeNode(leaf.ID, EncodeNode(leaf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Block.Key != leaf.Block.Key || got.Block.Len != 40 || len(got.Block.Providers) != 2 {
		t.Errorf("leaf round trip = %+v", got)
	}
	inner := Node{
		ID:    NodeID{Blob: 3, Version: 9, Off: 0, Span: 256},
		Left:  ChildRef{Version: 4},
		Right: ChildRef{Version: 9},
	}
	got, err = DecodeNode(inner.ID, EncodeNode(inner))
	if err != nil {
		t.Fatal(err)
	}
	if got.Left.Version != 4 || got.Right.Version != 9 || got.Leaf {
		t.Errorf("inner round trip = %+v", got)
	}
	if _, err := DecodeNode(inner.ID, []byte{1, 2}); err == nil {
		t.Error("garbage decoded")
	}
}

// TestNodeKeyFormat pins the DHT key: it decides which metadata
// provider holds a node, so it may never change.
func TestNodeKeyFormat(t *testing.T) {
	for _, id := range []NodeID{
		{},
		{Blob: 3, Version: 9, Off: 128, Span: 64},
		{Blob: 1<<64 - 1, Version: 1<<64 - 1, Off: 1<<63 - 1, Span: 1 << 62},
	} {
		want := fmt.Sprintf("t%d/%d/%d/%d", id.Blob, id.Version, id.Off, id.Span)
		if id.Key() != want || string(id.AppendKey([]byte("x"))) != "x"+want {
			t.Errorf("Key() = %q, AppendKey = %q, want %q", id.Key(), id.AppendKey(nil), want)
		}
	}
}

// droppingStore counts the nodes a batch puts and keeps none of them.
type droppingStore struct {
	Store
	put int
}

func (s *droppingStore) PutBatch(_ context.Context, nodes []Node) error {
	s.put += len(nodes)
	return nil
}

// TestWarmBuildAllocatesNothing: Build takes its node list from the
// last Build's, so a warm one-block overwrite of a 512-block blob, a
// leaf and its 9 ancestors, allocates nothing of its own (1 while each
// Build made its own list, about 1.4 KB of a 128 KB block's write).
func TestWarmBuildAllocatesNothing(t *testing.T) {
	h := &blob.History{}
	mustAppend(t, h, blob.WriteDesc{Version: 1, Off: 0, Len: 512 * B, SizeAfter: 512 * B, Kind: blob.KindAppend})
	mustAppend(t, h, blob.WriteDesc{Version: 2, Off: 7 * B, Len: B, SizeAfter: 512 * B})
	st, blocks := &droppingStore{}, refs(0xb2, 1, 0)
	build := func() {
		if n, err := Build(context.Background(), st, meta(), h, 2, blocks); err != nil || n != 10 {
			t.Fatalf("Build = %d nodes, %v; want 10", n, err)
		}
	}
	build()
	if n := testing.AllocsPerRun(100, build); n != 0 {
		t.Errorf("a warm Build allocates %v times, want none", n)
	}
	if st.put != 10*102 {
		t.Errorf("%d nodes put, want %d", st.put, 10*102)
	}
}
