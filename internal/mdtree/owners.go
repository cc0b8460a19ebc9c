package mdtree

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"blobseer/internal/blob"
	"blobseer/internal/wire"
)

// Owners is a blob's write history indexed by block: the versions that
// wrote each block, ascending. It answers a reader's one question —
// which version owns block b in snapshot v — by binary search, where
// blob.History.LatestIntersecting walks the history back from v. It is
// extended with *published* descriptors only (their ranges and their
// aborted marks never change, so no entry is ever rewritten). The zero
// value is empty; safe for concurrent use.
type Owners struct {
	mu      sync.RWMutex
	through blob.Version // versions 1..through are indexed
	byBlock map[int64][]blob.Version
	aborted []blob.Version // the indexed versions whose writers were aborted, ascending
}

// Through returns the newest version indexed.
func (o *Owners) Through() blob.Version {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.through
}

// Extend indexes descs, consecutive published versions of a blob of
// blockSize blocks. Versions already indexed are skipped; a run that
// does not continue at Through()+1 is left out (Through tells).
func (o *Owners) Extend(blockSize int64, descs []blob.WriteDesc) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.byBlock == nil {
		o.byBlock = make(map[int64][]blob.Version)
	}
	for _, d := range descs {
		if d.Version <= o.through {
			continue
		}
		if d.Version != o.through+1 {
			return
		}
		for b, end := d.Off/blockSize, blob.Blocks(d.Off+d.Len, blockSize); b < end; b++ {
			o.byBlock[b] = append(o.byBlock[b], d.Version)
		}
		if d.Aborted {
			o.aborted = append(o.aborted, d.Version)
		}
		o.through = d.Version
	}
}

// ownerLocked returns the newest version <= v that wrote block b, or
// NoVersion (a hole): the rule builder.node weaves leaves by, so (blob,
// owner, b*blockSize, blockSize) names the leaf v reads b through. An
// aborted version counts: it owns its blocks, which read as zeros, not
// as what an older version wrote there (Leaves).
func (o *Owners) ownerLocked(b int64, v blob.Version) blob.Version {
	ws := o.byBlock[b]
	i := sort.Search(len(ws), func(i int) bool { return ws[i] > v })
	if i == 0 {
		return blob.NoVersion
	}
	return ws[i-1]
}

// Scratch is the room Owners.Resolve works in, owned by its caller: the
// extents a call returns, and the leaf IDs and nodes it fetches them
// through. A caller that keeps one across calls resolves without
// allocating once its slices have grown to its reads. The zero value is
// ready to use. A Scratch serves one call at a time, and the extents a
// call returns are valid until the next call on the same Scratch.
type Scratch struct {
	extents []Extent
	ids     []NodeID
	nodes   []Node
}

// Reset drops what the last call left, so that a kept Scratch pins no
// node's provider list. Under wire.PoisonReleased it is scribbled over
// instead (a tree node that names no leaf), so that a reader still
// holding extents or nodes of it reads garbage rather than the old
// values.
func (sc *Scratch) Reset() {
	if !wire.Poisoning() {
		clear(sc.extents)
		clear(sc.nodes)
	} else {
		for i := range sc.extents {
			sc.extents[i] = Extent{FileOff: -1, Len: -1, HasData: true, DataOff: -1}
		}
		for i := range sc.nodes {
			sc.nodes[i] = Node{ID: NodeID{Off: -1, Span: -1}}
		}
	}
	sc.extents, sc.ids, sc.nodes = sc.extents[:0], sc.ids[:0], sc.nodes[:0]
}

// abortedLocked reports whether version w's writer was aborted.
func (o *Owners) abortedLocked(w blob.Version) bool {
	if len(o.aborted) == 0 {
		return false
	}
	_, found := slices.BinarySearch(o.aborted, w)
	return found
}

// Leaves appends to ids the leaves snapshot v reads the blocks of r
// through, in block order: (blob, owner, b*blockSize, blockSize) for
// each block b some version <= v wrote (ownerLocked). A hole names none,
// and neither does a block whose owner was aborted: it reads as a hole
// from the history alone, whatever its writer stored in the metadata.
// r must lie inside the snapshot and v be indexed (Through()).
// Resolve names its leaves here, and so does a streamed reader that
// fetches a window's leaves ahead of its reads.
func (o *Owners) Leaves(ids []NodeID, meta blob.Meta, v blob.Version, r blob.Range) ([]NodeID, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if v > o.through {
		return nil, fmt.Errorf("mdtree: block index reaches version %d, snapshot is %d", o.through, v)
	}
	bs := meta.BlockSize
	for b, end := r.Off/bs, blob.Blocks(r.End(), bs); b < end; b++ {
		if w := o.ownerLocked(b, v); w != blob.NoVersion && !o.abortedLocked(w) {
			ids = append(ids, NodeID{Blob: meta.ID, Version: w, Off: b * bs, Span: bs})
		}
	}
	return ids, nil
}

// Resolve returns what the package's Resolve returns for a snapshot v <=
// Through() — the ordered extents covering r, the same blocks at the
// same offsets — without walking the tree: each block's leaf is named
// from the index and all are fetched in one batch (one metadata round
// trip, none when cached; inner nodes are never read). Two differences:
// adjacent holes come back as one extent, where the walk splits them
// along subtree boundaries; and a block an aborted version owns is a
// hole, where the walk lands on whatever leaf is stored for it. The
// extents, the leaf IDs and the nodes go into sc's slices, so a call
// allocates nothing of its own once they have grown to the read; the
// extents' provider lists are the store's, shared.
func (o *Owners) Resolve(ctx context.Context, st Store, meta blob.Meta, v blob.Version, size int64, r blob.Range, sc *Scratch) ([]Extent, error) {
	r, err := clampRead(v, size, r)
	if err != nil || r.IsEmpty() {
		return nil, err
	}
	bs := meta.BlockSize
	first, end := r.Off/bs, blob.Blocks(r.End(), bs)
	ids, err := o.Leaves(slices.Grow(sc.ids[:0], int(end-first)), meta, v, r)
	if err != nil {
		return nil, err
	}
	sc.ids = ids
	out := slices.Grow(sc.extents[:0], int(end-first))
	i := 0
	for b := first; b < end; b++ {
		part := blob.Range{Off: b * bs, Len: bs}.Intersection(r)
		switch n := len(out); {
		case i < len(ids) && ids[i].Off == b*bs:
			out = append(out, Extent{FileOff: part.Off, Len: part.Len, HasData: true, DataOff: part.Off - b*bs})
			i++
		case n > 0 && !out[n-1].HasData:
			out[n-1].Len += part.Len
		default:
			out = append(out, Extent{FileOff: part.Off, Len: part.Len})
		}
	}
	sc.extents = out
	if len(ids) == 0 {
		return out, nil
	}
	leaves := slices.Grow(sc.nodes[:0], len(ids))[:len(ids)]
	sc.nodes = leaves
	if err := fetchLevel(ctx, st, ids, leaves); err != nil {
		return nil, err
	}
	i = 0
	for k := range out {
		if !out[k].HasData {
			continue
		}
		if !leaves[i].Leaf {
			return nil, fmt.Errorf("mdtree: node %s is not a leaf", ids[i].Key())
		}
		out[k].Block = leaves[i].Block
		i++
	}
	return out, nil
}
