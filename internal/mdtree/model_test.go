package mdtree

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"testing/quick"

	"blobseer/internal/blob"
	"blobseer/internal/util"
)

// refModel is a flat reference implementation of versioned blobs: a
// full byte-slice copy per version. The property tests check that
// Build+Resolve over the segment trees reproduce it bit-for-bit.
type refModel struct {
	versions [][]byte // versions[v-1] = contents at version v
}

func (m *refModel) apply(off int64, data []byte) {
	var prev []byte
	if len(m.versions) > 0 {
		prev = m.versions[len(m.versions)-1]
	}
	size := int64(len(prev))
	if off+int64(len(data)) > size {
		size = off + int64(len(data))
	}
	next := make([]byte, size)
	copy(next, prev)
	copy(next[off:], data)
	m.versions = append(m.versions, next)
}

func (m *refModel) read(v blob.Version, off, length int64) []byte {
	cur := m.versions[v-1]
	if off >= int64(len(cur)) {
		return nil
	}
	end := off + length
	if end > int64(len(cur)) {
		end = int64(len(cur))
	}
	return cur[off:end]
}

// treeHarness drives Build/Resolve with fake providers (an in-memory
// block map).
type treeHarness struct {
	t      *testing.T
	st     *MemStore
	h      *blob.History
	meta   blob.Meta
	blocks map[blob.BlockKey][]byte
	nonce  uint64
}

func newHarness(t *testing.T, blockSize int64) *treeHarness {
	return &treeHarness{
		t:      t,
		st:     NewMemStore(),
		h:      &blob.History{},
		meta:   blob.Meta{ID: 1, BlockSize: blockSize, Replication: 1},
		blocks: make(map[blob.BlockKey][]byte),
	}
}

func (th *treeHarness) write(off int64, data []byte) error {
	th.nonce++
	v := th.h.Latest() + 1
	size := th.h.SizeAt(th.h.Latest())
	if off+int64(len(data)) > size {
		size = off + int64(len(data))
	}
	n := blob.Blocks(int64(len(data)), th.meta.BlockSize)
	replicas := th.placement(n)
	if err := th.h.Append(blob.WriteDesc{Version: v, Off: off, Len: int64(len(data)), SizeAfter: size, Nonce: th.nonce, Replicas: replicas}); err != nil {
		return err
	}
	refs := make([]BlockRef, n)
	r := int64(th.meta.Replication)
	for i := int64(0); i < n; i++ {
		start := i * th.meta.BlockSize
		end := min(start+th.meta.BlockSize, int64(len(data)))
		key := blob.BlockKey{Blob: 1, Nonce: th.nonce, Seq: uint32(i)}
		th.blocks[key] = append([]byte(nil), data[start:end]...)
		refs[i] = BlockRef{Key: key, Providers: replicas[i*r : (i+1)*r], Len: end - start}
	}
	_, err := Build(context.Background(), th.st, th.meta, th.h, v, refs)
	return err
}

// placement names the replicas of a write of n blocks, block i's R
// at [i*R, (i+1)*R): addresses that differ from block to block and
// write to write, so that a block named from the wrong place shows.
func (th *treeHarness) placement(n int64) []string {
	out := make([]string, 0, n*int64(th.meta.Replication))
	for i := range n * int64(th.meta.Replication) {
		out = append(out, fmt.Sprintf("p%d", (int64(th.nonce)*7+i*3)%11))
	}
	return out
}

func (th *treeHarness) read(v blob.Version, off, length int64) ([]byte, error) {
	size := th.h.SizeAt(v)
	ext, err := Resolve(context.Background(), th.st, th.meta, v, size, blob.Range{Off: off, Len: length})
	if err != nil {
		return nil, err
	}
	var out []byte
	for _, e := range ext {
		if !e.HasData {
			out = append(out, make([]byte, e.Len)...)
			continue
		}
		data := th.blocks[e.Block.Key]
		// Mirror provider GetRange semantics: clamp, then zero-fill.
		o, l := e.DataOff, e.Len
		if o > int64(len(data)) {
			o = int64(len(data))
		}
		if o+l > int64(len(data)) {
			chunk := data[o:]
			out = append(out, chunk...)
			out = append(out, make([]byte, l-int64(len(chunk)))...)
		} else {
			out = append(out, data[o:o+l]...)
		}
	}
	return out, nil
}

// TestTreeMatchesReferenceModel drives a deterministic multi-version
// schedule and checks every version against the flat model.
func TestTreeMatchesReferenceModel(t *testing.T) {
	const bs = 16
	th := newHarness(t, bs)
	model := &refModel{}

	pattern := func(tag byte, n int) []byte {
		d := make([]byte, n)
		for i := range d {
			d[i] = tag + byte(i%7)
		}
		return d
	}
	steps := []struct {
		off  int64
		data []byte
	}{
		{0, pattern('a', 3*bs)},         // initial append
		{bs, pattern('b', bs)},          // overwrite middle block
		{3 * bs, pattern('c', bs+bs/2)}, // append with partial tail... aligned off
		{0, pattern('d', bs)},           // overwrite first block
		{6 * bs, pattern('e', 2*bs)},    // sparse write past EOF
		{4 * bs, pattern('f', bs)},      // fill part of the gap
	}
	for i, s := range steps {
		if err := th.write(s.off, s.data); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		model.apply(s.off, s.data)
	}
	for v := blob.Version(1); v <= th.h.Latest(); v++ {
		size := th.h.SizeAt(v)
		got, err := th.read(v, 0, size)
		if err != nil {
			t.Fatalf("read v%d: %v", v, err)
		}
		want := model.read(v, 0, size)
		// Zero-pad reference for sparse regions beyond its stored size.
		for int64(len(want)) < size {
			want = append(want, 0)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("version %d mismatch: got %d bytes, want %d", v, len(got), len(want))
		}
	}
}

// TestTreePropertyRandomSchedules is the main property test: random
// block-aligned write/append schedules, random sub-range reads at
// every version, compared to the reference model.
func TestTreePropertyRandomSchedules(t *testing.T) {
	const bs = 8
	f := func(seed uint64) bool {
		rng := util.NewSplitMix64(seed)
		th := newHarness(t, bs)
		model := &refModel{}
		size := int64(0)
		for step := 0; step < 12; step++ {
			var off int64
			if rng.Intn(2) == 0 || size == 0 {
				off = (size + bs - 1) / bs * bs // append at aligned EOF
			} else {
				off = rng.Int63n(size/bs+1) * bs
			}
			n := 1 + rng.Int63n(3*bs)
			// Partial tails only at EOF (the core validation rule).
			if off+n < size && n%bs != 0 {
				n = (n/bs + 1) * bs
			}
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(rng.Next())
			}
			if err := th.write(off, data); err != nil {
				t.Logf("write failed: %v", err)
				return false
			}
			model.apply(off, data)
			if off+n > size {
				size = off + n
			}
		}
		// Random reads at random versions.
		for q := 0; q < 20; q++ {
			v := blob.Version(1 + rng.Intn(int(th.h.Latest())))
			vsize := th.h.SizeAt(v)
			off := rng.Int63n(vsize + 3)
			length := rng.Int63n(vsize + 3)
			got, err := th.read(v, off, length)
			if err != nil {
				t.Logf("read failed: %v", err)
				return false
			}
			want := model.read(v, off, length)
			// Model returns only stored bytes; tree returns zero-filled
			// up to min(end, size). Pad the model to compare.
			end := off + length
			if end > vsize {
				end = vsize
			}
			wantLen := end - off
			if wantLen < 0 {
				wantLen = 0
			}
			for int64(len(want)) < wantLen {
				want = append(want, 0)
			}
			if !bytes.Equal(got, want) {
				t.Logf("seed %d v%d read(%d,%d): got %d bytes want %d", seed, v, off, length, len(got), len(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSubtreeSharingBounded verifies the storage-efficiency claim: a
// one-block overwrite of a large blob creates O(log n) nodes, not O(n).
func TestSubtreeSharingBounded(t *testing.T) {
	const bs = 4
	th := newHarness(t, bs)
	if err := th.write(0, make([]byte, 256*bs)); err != nil { // 256 blocks
		t.Fatal(err)
	}
	before := th.st.Len()
	if err := th.write(128*bs, make([]byte, bs)); err != nil {
		t.Fatal(err)
	}
	created := th.st.Len() - before
	// One leaf + path to root: log2(256) = 8 inner nodes + root = 9,
	// plus the leaf = 10... exactly depth+1 nodes.
	if created != 9 {
		t.Errorf("one-block overwrite created %d nodes, want 9 (leaf + path)", created)
	}
}

// TestDeterministicNodeIdentity: two independent builders over the same
// history must produce identical node sets (the foundation of
// concurrent weaving and abort repair).
func TestDeterministicNodeIdentity(t *testing.T) {
	mkIDs := func() map[string]bool {
		h := &blob.History{}
		m := blob.Meta{ID: 1, BlockSize: 8, Replication: 1}
		writes := []blob.WriteDesc{
			{Version: 1, Off: 0, Len: 32, SizeAfter: 32},
			{Version: 2, Off: 8, Len: 16, SizeAfter: 32},
			{Version: 3, Off: 32, Len: 8, SizeAfter: 40},
		}
		ids := map[string]bool{}
		for _, d := range writes {
			if err := h.Append(d); err != nil {
				t.Fatal(err)
			}
			plan, err := PlanNodes(m, h, d.Version)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range plan {
				ids[id.Key()] = true
			}
		}
		return ids
	}
	a, b := mkIDs(), mkIDs()
	if len(a) != len(b) {
		t.Fatalf("plans differ in size: %d vs %d", len(a), len(b))
	}
	for k := range a {
		if !b[k] {
			t.Errorf("node %s missing from second plan", k)
		}
	}
}

func TestNodeIDKeyUnique(t *testing.T) {
	seen := map[string]bool{}
	for v := blob.Version(1); v <= 3; v++ {
		for off := int64(0); off < 4; off++ {
			for span := int64(1); span <= 2; span++ {
				k := NodeID{Blob: 1, Version: v, Off: off * 64, Span: span * 64}.Key()
				if seen[k] {
					t.Fatalf("duplicate key %s", k)
				}
				seen[k] = true
			}
		}
	}
	a := NodeID{Blob: 1, Version: 12, Off: 3, Span: 4}.Key()
	b := NodeID{Blob: 1, Version: 1, Off: 23, Span: 4}.Key()
	if a == b {
		t.Errorf("ambiguous keys: %q vs %q", a, b)
	}
	_ = fmt.Sprintf("%s", a)
}
