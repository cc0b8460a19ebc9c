// Package mdtree implements BlobSeer's distributed segment-tree
// metadata (Section III-A3 and ref [12]). One tree is associated with
// every snapshot version of a BLOB; trees share entire subtrees with
// older versions so each write stores only the nodes covering its
// differential patch.
//
// Node identity is deterministic: a node is named by
// (blob, version, offset, span). Version v materializes node R iff R
// intersects v's write range — plus "bridge" nodes created when the
// root span grows past what an older borrowed subtree can cover. All
// other children borrow the newest version w <= v whose write range
// intersects them. Because identity is computable from the write
// descriptor history alone, a writer can weave references to metadata
// that concurrent lower-version writers are *still producing* — the
// paper's key trick for fully parallel metadata generation.
//
// No production reader reads a node. Every descriptor a pin returns
// carries its write's placement, so a reader that holds the history up
// to its snapshot (Owners) derives what each block's leaf holds — key,
// replicas, length — and sends nothing: clients, repair scans and the
// garbage collector's choice of dead blocks all ask the index. Writers
// still write the tree; the garbage collector deletes the nodes no kept
// version reaches (DeadNodes), the simulator charges the messages of
// the nodes a write plans (PlanNodes), and the walk down from a
// snapshot's root (Resolve, a batch per level) is the reference the
// index is tested against. An aborted version may have no tree at all,
// and a later one may borrow from it all the same; the index skips it,
// so a block reads what the newest version that was not aborted wrote
// there.
package mdtree

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"

	"blobseer/internal/blob"
	"blobseer/internal/util"
)

// NodeID names a segment-tree node. Span is the number of bytes the
// node covers: a power-of-two multiple of the block size for inner
// nodes, exactly the block size for leaves.
type NodeID struct {
	Blob    blob.ID
	Version blob.Version
	Off     int64
	Span    int64
}

// Key renders the DHT key for the node: "t<blob>/<version>/<off>/<span>".
func (id NodeID) Key() string { return string(id.AppendKey(make([]byte, 0, 64))) }

// AppendKey appends the node's DHT key to dst.
func (id NodeID) AppendKey(dst []byte) []byte {
	dst = strconv.AppendUint(append(dst, 't'), uint64(id.Blob), 10)
	dst = strconv.AppendUint(append(dst, '/'), uint64(id.Version), 10)
	dst = strconv.AppendInt(append(dst, '/'), id.Off, 10)
	return strconv.AppendInt(append(dst, '/'), id.Span, 10)
}

// Range returns the byte range the node covers.
func (id NodeID) Range() blob.Range { return blob.Range{Off: id.Off, Len: id.Span} }

// BlockRef locates one stored data block from a leaf.
type BlockRef struct {
	Key       blob.BlockKey
	Providers []string // replica addresses, primary first; read-only (extents share the descriptor's)
	Len       int64    // bytes actually stored (<= block size; last block may be partial)
}

// ChildRef points at a child subtree. Version == blob.NoVersion means
// the child is absent: that region was never written and reads as
// zeros.
type ChildRef struct {
	Version blob.Version
}

// Present reports whether the child exists.
func (c ChildRef) Present() bool { return c.Version != blob.NoVersion }

// Node is one stored tree node.
type Node struct {
	ID    NodeID
	Leaf  bool
	Left  ChildRef // inner nodes only
	Right ChildRef
	Block BlockRef // leaves only
}

// Store is where tree nodes live: the metadata DHT in deployments, an
// in-memory map in unit tests. Nodes move in batches: Build ships a
// whole patch's nodes with one PutBatch, grouped per provider, and a
// tree walk fetches a whole level with one GetBatch, a round trip per
// provider — the difference between O(nodes) and O(depth) metadata
// latency.
// GetBatch omits absent nodes from its result, and fails only when a
// node's presence could not be decided (e.g. all replicas unreachable).
// Put and Get are one-node batches; Get fails on an absent node. Delete
// removes a node (garbage collection of pruned versions).
//
// PutBatch keeps no reference to nodes once it has returned, nor to a
// leaf's Providers: Build recycles the list, and a writer the
// placement vector the leaves name their replicas in.
type Store interface {
	PutBatch(ctx context.Context, nodes []Node) error
	GetBatch(ctx context.Context, ids []NodeID) (map[NodeID]Node, error)
	Put(ctx context.Context, n Node) error
	Get(ctx context.Context, id NodeID) (Node, error)
	Delete(ctx context.Context, id NodeID) error
}

// BatchStore is Store under another name, kept for the callers that use
// it.
type BatchStore = Store

// getOne is Get as a one-node GetBatch of st: an absent node fails.
func getOne(ctx context.Context, st Store, id NodeID) (Node, error) {
	got, err := st.GetBatch(ctx, []NodeID{id})
	if n, ok := got[id]; ok || err != nil {
		return n, err
	}
	return Node{}, fmt.Errorf("mdtree: node %s not found", id.Key())
}

// Build generates and stores the metadata tree for version v. The
// history h must contain descriptors for all versions <= v of the blob
// (the version manager supplies them — including descriptors of writes
// still in progress, which is what allows concurrent weaving).
// blocks[i] describes the i-th block of v's payload. It returns the
// number of nodes created.
//
// Build never reads existing metadata: everything it needs is derived
// from h, so it proceeds in full parallelism with other writers.
func Build(ctx context.Context, st Store, meta blob.Meta, h *blob.History, v blob.Version, blocks []BlockRef) (int, error) {
	d, ok := h.Desc(v)
	if !ok {
		return 0, fmt.Errorf("mdtree: history has no descriptor for version %d", v)
	}
	update := d.Range()
	if update.IsEmpty() && !d.Aborted {
		return 0, fmt.Errorf("mdtree: version %d has an empty write range", v)
	}
	if update.Off%meta.BlockSize != 0 {
		return 0, fmt.Errorf("mdtree: version %d write offset %d not block-aligned", v, update.Off)
	}
	want := int(blob.Blocks(update.Len, meta.BlockSize))
	if len(blocks) != want {
		return 0, fmt.Errorf("mdtree: version %d: %d block refs for %d blocks", v, len(blocks), want)
	}

	span := blob.SpanBytes(d.SizeAfter, meta.BlockSize)
	// A patch of k blocks materializes its leaves, their ancestors inside
	// the patch (fewer than k more) and a path up to the root.
	room := 2*len(blocks) + bits.Len64(uint64(span/meta.BlockSize))
	out, _ := builtNodes.Get()
	b := &builder{meta: meta, h: *h, v: v, update: update, blocks: blocks, out: slices.Grow(out, room)}
	defer func() {
		if cap(b.out) <= maxKeptNodes {
			clear(b.out)
			builtNodes.Put(b.out[:0])
		}
	}()
	if _, err := b.node(blob.Range{Off: 0, Len: span}); err != nil {
		return 0, err
	}
	if len(b.out) == 0 {
		return 0, fmt.Errorf("mdtree: version %d produced no nodes", v)
	}
	if err := st.PutBatch(ctx, b.out); err != nil {
		return 0, err
	}
	return len(b.out), nil
}

// builtNodes recycles Build's node lists, up to maxKeptNodes nodes each.
var builtNodes util.FreeList[[]Node]

const maxKeptNodes = 256

type builder struct {
	meta   blob.Meta
	h      blob.History // a copy, so that the caller's stays off the heap
	v      blob.Version
	update blob.Range
	blocks []BlockRef
	out    []Node
}

// node decides how version v covers range r: absent, borrowed from an
// older version, or materialized at v (recursing into halves).
func (b *builder) node(r blob.Range) (ChildRef, error) {
	w := b.h.LatestIntersecting(r, b.v)
	if w == blob.NoVersion {
		return ChildRef{}, nil // hole: reads as zeros
	}
	if w < b.v {
		// The node exists at version w iff r fits inside w's root span;
		// otherwise we must bridge (materialize at v) even though our
		// own write does not touch r.
		wSpan := blob.SpanBytes(b.h.SizeAt(w), b.meta.BlockSize)
		if r.End() <= wSpan {
			return ChildRef{Version: w}, nil
		}
	}
	// Materialize at v.
	if r.Len == b.meta.BlockSize {
		// Leaves intersecting an older write always fit its span, so a
		// materialized leaf must be one of v's own blocks.
		if w != b.v {
			return ChildRef{}, fmt.Errorf("mdtree: internal: leaf %v materialized for version %d but owned by %d", r, b.v, w)
		}
		idx := (r.Off - b.update.Off) / b.meta.BlockSize
		if idx < 0 || idx >= int64(len(b.blocks)) {
			return ChildRef{}, fmt.Errorf("mdtree: internal: leaf %v outside payload of version %d", r, b.v)
		}
		b.out = append(b.out, Node{
			ID:    NodeID{Blob: b.meta.ID, Version: b.v, Off: r.Off, Span: r.Len},
			Leaf:  true,
			Block: b.blocks[idx],
		})
		return ChildRef{Version: b.v}, nil
	}
	half := r.Len / 2
	left, err := b.node(blob.Range{Off: r.Off, Len: half})
	if err != nil {
		return ChildRef{}, err
	}
	right, err := b.node(blob.Range{Off: r.Off + half, Len: half})
	if err != nil {
		return ChildRef{}, err
	}
	b.out = append(b.out, Node{
		ID:    NodeID{Blob: b.meta.ID, Version: b.v, Off: r.Off, Span: r.Len},
		Left:  left,
		Right: right,
	})
	return ChildRef{Version: b.v}, nil
}

// PlanNodes returns the node IDs version v would materialize, without
// storing anything. Garbage collection (DeadNodes) and the large-scale
// simulator use it: GC deletes those of them no kept version reaches,
// and the simulator bills a write for storing them.
func PlanNodes(meta blob.Meta, h *blob.History, v blob.Version) ([]NodeID, error) {
	d, ok := h.Desc(v)
	if !ok {
		return nil, fmt.Errorf("mdtree: history has no descriptor for version %d", v)
	}
	n := int(blob.Blocks(d.Len, meta.BlockSize))
	b := &builder{meta: meta, h: *h, v: v, update: d.Range(), blocks: make([]BlockRef, n)}
	span := blob.SpanBytes(d.SizeAfter, meta.BlockSize)
	if _, err := b.node(blob.Range{Off: 0, Len: span}); err != nil {
		return nil, err
	}
	ids := make([]NodeID, len(b.out))
	for i, nd := range b.out {
		ids[i] = nd.ID
	}
	return ids, nil
}

// Extent is one contiguous piece of a resolved read: Len bytes starting
// at FileOff in the blob. If HasData, the bytes come from Block
// starting at DataOff (bytes past Block.Len read as zeros); otherwise
// the whole extent is a hole and reads as zeros.
type Extent struct {
	FileOff int64
	Len     int64
	HasData bool
	Block   BlockRef
	DataOff int64
}

// Resolve walks the tree of version v and returns the ordered extents
// covering r. size is the blob size at v (from the version manager);
// r is clamped against it. Resolve needs no history.
//
// The walk is a frontier BFS: every tree level is fetched with one
// batch, so the whole resolution costs O(depth) batched round-trips
// instead of one blocking round-trip per visited node — the metadata
// hot path the paper requires to never serialize readers.
func Resolve(ctx context.Context, st Store, meta blob.Meta, v blob.Version, size int64, r blob.Range) ([]Extent, error) {
	r, err := clampRead(v, size, r)
	if err != nil || r.IsEmpty() {
		return nil, err
	}
	want := r
	span := blob.SpanBytes(size, meta.BlockSize)

	// A slot is one child reference still to be expanded, with the range
	// it covers. The frontier holds one tree level at a time.
	type slot struct {
		ref   ChildRef
		cover blob.Range
	}
	frontier := []slot{{ref: ChildRef{Version: v}, cover: blob.Range{Off: 0, Len: span}}}
	var out []Extent
	ids := make([]NodeID, 0, 16)
	covers := make([]blob.Range, 0, 16)
	for len(frontier) > 0 {
		// Split the level into holes (resolved immediately) and present
		// nodes (fetched together).
		ids, covers = ids[:0], covers[:0]
		for _, s := range frontier {
			part := s.cover.Intersection(want)
			if part.IsEmpty() {
				continue
			}
			if !s.ref.Present() {
				out = append(out, Extent{FileOff: part.Off, Len: part.Len})
				continue
			}
			ids = append(ids, NodeID{Blob: meta.ID, Version: s.ref.Version, Off: s.cover.Off, Span: s.cover.Len})
			covers = append(covers, s.cover)
		}
		if len(ids) == 0 {
			break
		}
		nodes, err := st.GetBatch(ctx, ids)
		if err != nil {
			return nil, fmt.Errorf("mdtree: fetch level (%d nodes): %w", len(ids), err)
		}
		var next []slot
		for i, id := range ids {
			n, ok := nodes[id]
			if !ok {
				return nil, fmt.Errorf("mdtree: fetch %s: node not found", id.Key())
			}
			cover := covers[i]
			part := cover.Intersection(want)
			if n.Leaf {
				out = append(out, Extent{
					FileOff: part.Off,
					Len:     part.Len,
					HasData: true,
					Block:   n.Block,
					DataOff: part.Off - cover.Off,
				})
				continue
			}
			half := cover.Len / 2
			next = append(next,
				slot{ref: n.Left, cover: blob.Range{Off: cover.Off, Len: half}},
				slot{ref: n.Right, cover: blob.Range{Off: cover.Off + half, Len: half}})
		}
		frontier = next
	}
	// Extents surface in level order (a hole two levels up precedes a
	// deeper leaf to its left); they are disjoint, so sorting by offset
	// restores the contract of ordered extents.
	sort.Slice(out, func(i, j int) bool { return out[i].FileOff < out[j].FileOff })
	return out, nil
}

// clampRead cuts a read of snapshot (v, size) down to the bytes it has.
func clampRead(v blob.Version, size int64, r blob.Range) (blob.Range, error) {
	if v == blob.NoVersion || size <= 0 {
		return blob.Range{}, nil
	}
	if r.Off < 0 {
		return blob.Range{}, fmt.Errorf("mdtree: negative read offset %d", r.Off)
	}
	if r.End() > size {
		r.Len = size - r.Off
	}
	return r, nil
}
