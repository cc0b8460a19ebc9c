package mdtree

import (
	"reflect"
	"testing"

	"blobseer/internal/blob"
)

const gcBlock = int64(1024)

func gcHistory(t *testing.T, descs ...blob.WriteDesc) *blob.History {
	t.Helper()
	h := &blob.History{}
	for i := range descs {
		descs[i].Version = blob.Version(i + 1)
		if err := h.Append(descs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func desc(off, ln, after int64, kind blob.WriteKind) blob.WriteDesc {
	return blob.WriteDesc{Off: off, Len: ln, SizeAfter: after, Kind: kind, Nonce: 1}
}

// TestDeadNodesFigure1 prunes the Figure 1 scenario: append 4 blocks
// (v1), overwrite blocks 1-2 (v2), append 1 block (v3). Keeping only
// v3, v1's overwritten leaves die while its still-visible leaves (and
// the subtrees above them that v3 reads through) survive.
func TestDeadNodesFigure1(t *testing.T) {
	meta := blob.Meta{ID: 1, BlockSize: gcBlock, Replication: 1}
	h := gcHistory(t,
		desc(0, 4*gcBlock, 4*gcBlock, blob.KindAppend),
		desc(1*gcBlock, 2*gcBlock, 4*gcBlock, blob.KindWrite),
		desc(4*gcBlock, 1*gcBlock, 5*gcBlock, blob.KindAppend),
	)

	dead1, err := DeadNodes(meta, h, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	deadSet := make(map[string]bool)
	leaves := 0
	for _, id := range dead1 {
		deadSet[id.Key()] = true
		if id.Span == gcBlock {
			leaves++
		}
	}
	// v1's leaves at blocks 1 and 2 were overwritten by v2: dead. Its
	// leaves at blocks 0 and 3 are still read by v3: live.
	if leaves != 2 {
		t.Errorf("want 2 dead v1 leaves, got %d (%v)", leaves, dead1)
	}
	for _, off := range []int64{1 * gcBlock, 2 * gcBlock} {
		id := NodeID{Blob: 1, Version: 1, Off: off, Span: gcBlock}
		if !deadSet[id.Key()] {
			t.Errorf("overwritten leaf %s should be dead", id.Key())
		}
	}
	for _, off := range []int64{0, 3 * gcBlock} {
		id := NodeID{Blob: 1, Version: 1, Off: off, Span: gcBlock}
		if deadSet[id.Key()] {
			t.Errorf("shared leaf %s must survive", id.Key())
		}
	}
	// v1's root [0,4B) intersects v2's write: dead (v2 materialized its
	// own [0,4B) node).
	root1 := NodeID{Blob: 1, Version: 1, Off: 0, Span: 4 * gcBlock}
	if !deadSet[root1.Key()] {
		t.Errorf("v1 root %s should be dead (v2 rebuilt that range)", root1.Key())
	}

	// Pruning v2 while keeping v3: v3's append did not touch v2's
	// range, so every v2 node is still read through v3's tree.
	dead2, err := DeadNodes(meta, h, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(dead2) != 0 {
		t.Errorf("no v2 node should die keeping v3, got %v", dead2)
	}
}

// TestDeadNodesKeptReadsUnaffected cross-checks DeadNodes against the
// resolver: after deleting the dead nodes of pruned versions, every
// kept version still resolves every byte it could resolve before.
func TestDeadNodesKeptReadsUnaffected(t *testing.T) {
	meta := blob.Meta{ID: 1, BlockSize: gcBlock, Replication: 1}
	// A busier schedule: appends growing the span + scattered overwrites.
	h := gcHistory(t,
		desc(0, 2*gcBlock, 2*gcBlock, blob.KindAppend),
		desc(2*gcBlock, 3*gcBlock, 5*gcBlock, blob.KindAppend),
		desc(0, 1*gcBlock, 5*gcBlock, blob.KindWrite),
		desc(5*gcBlock, 2*gcBlock, 7*gcBlock, blob.KindAppend),
		desc(3*gcBlock, 2*gcBlock, 7*gcBlock, blob.KindWrite),
		desc(7*gcBlock, 1*gcBlock, 8*gcBlock, blob.KindAppend),
	)
	st := NewMemStore()
	build := func(v blob.Version) {
		d, _ := h.Desc(v)
		n := int(blob.Blocks(d.Len, meta.BlockSize))
		blocks := make([]BlockRef, n)
		for i := range blocks {
			blocks[i] = BlockRef{
				Key:       blob.BlockKey{Blob: 1, Nonce: uint64(v), Seq: uint32(i)},
				Providers: []string{"p"},
				Len:       meta.BlockSize,
			}
		}
		if _, err := Build(t.Context(), st, meta, h, v, blocks); err != nil {
			t.Fatalf("build v%d: %v", v, err)
		}
	}
	for v := blob.Version(1); v <= 6; v++ {
		build(v)
	}

	const keep = blob.Version(4)
	// Resolve every kept version fully, before GC.
	want := make(map[blob.Version][]Extent)
	for v := keep; v <= 6; v++ {
		ext, err := Resolve(t.Context(), st, meta, v, h.SizeAt(v), blob.Range{Off: 0, Len: h.SizeAt(v)})
		if err != nil {
			t.Fatalf("pre-GC resolve v%d: %v", v, err)
		}
		want[v] = ext
	}

	for k := blob.Version(1); k < keep; k++ {
		dead, err := DeadNodes(meta, h, k, keep)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range dead {
			if err := st.Delete(t.Context(), id); err != nil {
				t.Fatal(err)
			}
		}
	}

	for v := keep; v <= 6; v++ {
		got, err := Resolve(t.Context(), st, meta, v, h.SizeAt(v), blob.Range{Off: 0, Len: h.SizeAt(v)})
		if err != nil {
			t.Fatalf("post-GC resolve v%d: %v", v, err)
		}
		if len(got) != len(want[v]) {
			t.Fatalf("v%d: extent count changed %d -> %d", v, len(want[v]), len(got))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[v][i]) {
				t.Errorf("v%d extent %d changed: %+v -> %+v", v, i, want[v][i], got[i])
			}
		}
	}
}

func TestDeadNodesRejectsKeptVersion(t *testing.T) {
	meta := blob.Meta{ID: 1, BlockSize: gcBlock, Replication: 1}
	h := gcHistory(t, desc(0, gcBlock, gcBlock, blob.KindAppend))
	if _, err := DeadNodes(meta, h, 1, 1); err == nil {
		t.Fatal("k == keep should be rejected")
	}
}
