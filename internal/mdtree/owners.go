package mdtree

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"blobseer/internal/blob"
	"blobseer/internal/wire"
)

// Owners is a blob's write history indexed by block: the versions that
// wrote each block, and each version's nonce and placement. It answers
// the one question readers, repair scans and the garbage collector ask —
// which stored block does snapshot v read block b from, and on which
// providers — from memory, where a leaf would cost a metadata round
// trip. A block keeps its newest writer in a map entry, and its earlier
// writers, ascending, in a slice only once rewritten: pinning a BSFS
// file, which writes each block once, costs the map's growth. An aborted
// write wrote nothing: it keeps its version number, and no block names
// it. It is extended with *published* descriptors only, whose ranges
// never change; a placement changes only by a repair's relocation, which
// a reader learns block by block (Relocate). The zero value is empty;
// safe for concurrent use.
type Owners struct {
	mu      sync.RWMutex
	through blob.Version // versions 1..through are indexed
	newest  map[int64]blob.Version
	earlier map[int64][]blob.Version // of blocks written more than once
	writes  []written                // version v's at v-1
}

// written is what Owners keeps of one version: 48 bytes, its placement
// shared with the descriptor it came from.
type written struct {
	nonce    uint64
	off, end int64    // the byte range written
	replicas []string // blob.WriteDesc.Replicas
}

// Through returns the newest version indexed.
func (o *Owners) Through() blob.Version {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.through
}

// Extend indexes descs, consecutive published versions of a blob of
// configuration m. Versions already indexed are skipped; a run that
// does not continue at Through()+1 is left out (Through tells). A
// descriptor whose placement does not fit it fails the call
// (blob.WriteDesc.CheckPlacement), the versions before it indexed.
func (o *Owners) Extend(m blob.Meta, descs []blob.WriteDesc) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.newest == nil {
		o.newest, o.earlier = make(map[int64]blob.Version), make(map[int64][]blob.Version)
	}
	o.writes = slices.Grow(o.writes, len(descs))
	for _, d := range descs {
		if d.Version <= o.through {
			continue
		}
		if d.Version != o.through+1 {
			return nil
		}
		if err := d.CheckPlacement(m); err != nil {
			return fmt.Errorf("mdtree: blob %d: %w", m.ID, err)
		}
		for b, end := d.Off/m.BlockSize, blob.Blocks(d.Off+d.Len, m.BlockSize); b < end && !d.Aborted; b++ {
			if w, ok := o.newest[b]; ok {
				o.earlier[b] = append(o.earlier[b], w)
			}
			o.newest[b] = d.Version // an aborted write owns no block
		}
		o.writes = append(o.writes, written{nonce: d.Nonce, off: d.Off, end: d.Off + d.Len, replicas: d.Replicas})
		o.through = d.Version
	}
	return nil
}

// Relocate records that a repair moved the block key names to replicas
// (vmanager.State.Relocate), on a copy of its write's placement, which
// extents resolved before keep. Replicas that are not one block's, or a
// key no indexed write stored, change nothing.
func (o *Owners) Relocate(m blob.Meta, key blob.BlockKey, replicas []string) {
	if len(replicas) != m.Replication || slices.Contains(replicas, "") {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for i := len(o.writes) - 1; i >= 0; i-- {
		if wr := &o.writes[i]; wr.nonce == key.Nonce {
			if lo := int(key.Seq) * m.Replication; lo+m.Replication <= len(wr.replicas) {
				wr.replicas = slices.Clone(wr.replicas)
				copy(wr.replicas[lo:], replicas)
			}
			return
		}
	}
}

// ownerLocked returns the newest version <= v that wrote block b and was
// not aborted, or NoVersion (a hole). Where no aborted version stands
// between them, that is the version whose leaf v's tree holds for b;
// where one does, v reads what was there before it, as if it had never
// been assigned.
func (o *Owners) ownerLocked(b int64, v blob.Version) blob.Version {
	if w := o.newest[b]; w <= v {
		return w // NoVersion where no version wrote b
	}
	ws := o.earlier[b]
	i := sort.Search(len(ws), func(i int) bool { return ws[i] > v })
	if i == 0 {
		return blob.NoVersion
	}
	return ws[i-1]
}

// blockLocked returns the stored block snapshot v reads block b from —
// its key, its replicas primary first and its length, as its owner's
// leaf holds them — or false for a hole: a block no version <= v wrote
// and kept. A block whose owner sent no placement fails.
func (o *Owners) blockLocked(m blob.Meta, b int64, v blob.Version) (BlockRef, bool, error) {
	w := o.ownerLocked(b, v)
	if w == blob.NoVersion {
		return BlockRef{}, false, nil
	}
	wr := &o.writes[w-1]
	if len(wr.replicas) == 0 {
		return BlockRef{}, false, fmt.Errorf("mdtree: version %d of blob %d has no placement: block %d cannot be located", w, m.ID, b)
	}
	bs := m.BlockSize
	seq := b - wr.off/bs
	end := (int(seq) + 1) * m.Replication
	return BlockRef{
		Key:       blob.BlockKey{Blob: m.ID, Nonce: wr.nonce, Seq: uint32(seq)},
		Providers: wr.replicas[end-m.Replication : end : end],
		Len:       min(bs, wr.end-b*bs),
	}, true, nil
}

// Blocks appends to refs the stored blocks snapshot v reads the blocks
// of r from, in block order, holes left out (blockLocked), and so are
// blocks whose owner sent no placement: nothing says where they live.
// r must lie inside the snapshot and v be indexed (Through()). A repair
// scan names the blocks it checks here, and the garbage collector the
// blocks it keeps.
func (o *Owners) Blocks(refs []BlockRef, m blob.Meta, v blob.Version, r blob.Range) []BlockRef {
	o.mu.RLock()
	defer o.mu.RUnlock()
	for b, end := r.Off/m.BlockSize, blob.Blocks(r.End(), m.BlockSize); b < end; b++ {
		if ref, ok, _ := o.blockLocked(m, b, v); ok {
			refs = append(refs, ref)
		}
	}
	return refs
}

// Scratch is the room Owners.Resolve works in, owned by its caller: the
// extents a call returns. A caller that keeps one across calls resolves
// without allocating once it has grown to its reads. The zero value is
// ready to use. A Scratch serves one call at a time, and the extents a
// call returns are valid until the next call on the same Scratch.
type Scratch struct {
	extents []Extent
}

// Reset drops what the last call left, so that a kept Scratch pins no
// placement. Under wire.PoisonReleased it is scribbled over instead, so
// that a reader still holding extents of it reads garbage rather than
// the old values.
func (sc *Scratch) Reset() {
	if !wire.Poisoning() {
		clear(sc.extents)
	} else {
		for i := range sc.extents {
			sc.extents[i] = Extent{FileOff: -1, Len: -1, HasData: true, DataOff: -1}
		}
	}
	sc.extents = sc.extents[:0]
}

// Resolve returns what the package's Resolve returns for a snapshot v <=
// Through() — the ordered extents covering r, each block's key,
// replicas and length as its leaf holds them — from the index alone,
// sending nothing. Two differences: adjacent holes come back as one
// extent, where the walk splits them along subtree boundaries; and
// where the walk reaches an aborted version's leaf, the index reads
// what the snapshot before that version read there (ownerLocked). The
// extents go into sc, so a call allocates nothing once sc has grown to
// the read.
func (o *Owners) Resolve(m blob.Meta, v blob.Version, size int64, r blob.Range, sc *Scratch) ([]Extent, error) {
	r, err := clampRead(v, size, r)
	if err != nil || r.IsEmpty() {
		return nil, err
	}
	o.mu.RLock()
	defer o.mu.RUnlock()
	if v > o.through {
		return nil, fmt.Errorf("mdtree: block index reaches version %d, snapshot is %d", o.through, v)
	}
	bs := m.BlockSize
	first, end := r.Off/bs, blob.Blocks(r.End(), bs)
	out := slices.Grow(sc.extents[:0], int(end-first))
	for b := first; b < end; b++ {
		part := blob.Range{Off: b * bs, Len: bs}.Intersection(r)
		ref, ok, err := o.blockLocked(m, b, v)
		switch n := len(out); {
		case err != nil:
			sc.extents = out
			return nil, err
		case ok:
			out = append(out, Extent{FileOff: part.Off, Len: part.Len, HasData: true, Block: ref, DataOff: part.Off - b*bs})
		case n > 0 && !out[n-1].HasData:
			out[n-1].Len += part.Len
		default:
			out = append(out, Extent{FileOff: part.Off, Len: part.Len})
		}
	}
	sc.extents = out
	return out, nil
}
