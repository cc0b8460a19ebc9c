// Package blob defines the fundamental value types of the BlobSeer data
// model: BLOB identifiers, snapshot versions, byte ranges, block keys
// and the per-blob write-descriptor history that drives both metadata
// weaving and read resolution.
//
// Terminology follows the paper: a BLOB is a flat sequence of bytes
// striped into fixed-size blocks; every write or append produces a new
// snapshot version that shares unmodified data and metadata with its
// predecessors.
package blob

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"

	"blobseer/internal/util"
)

// ID uniquely identifies a BLOB in the system. IDs are allocated by the
// version manager, starting at 1; 0 is "no blob".
type ID uint64

// Version identifies a snapshot of a BLOB. Versions are dense and
// assigned sequentially by the version manager starting at 1. Version 0
// is the implicit empty snapshot every BLOB starts with.
type Version uint64

// NoVersion is the version of the empty initial snapshot.
const NoVersion Version = 0

// Range is a half-open byte range [Off, Off+Len) within a BLOB.
type Range struct {
	Off int64
	Len int64
}

// End returns the exclusive end offset of the range.
func (r Range) End() int64 { return r.Off + r.Len }

// IsEmpty reports whether the range covers no bytes.
func (r Range) IsEmpty() bool { return r.Len <= 0 }

// Intersects reports whether r and o share at least one byte.
func (r Range) Intersects(o Range) bool {
	return !r.IsEmpty() && !o.IsEmpty() && r.Off < o.End() && o.Off < r.End()
}

// Intersection returns the overlapping part of r and o (possibly empty).
func (r Range) Intersection(o Range) Range {
	off := max(r.Off, o.Off)
	end := min(r.End(), o.End())
	if end <= off {
		return Range{Off: off, Len: 0}
	}
	return Range{Off: off, Len: end - off}
}

// Contains reports whether o lies fully within r.
func (r Range) Contains(o Range) bool {
	return o.Off >= r.Off && o.End() <= r.End()
}

func (r Range) String() string {
	return fmt.Sprintf("[%d,%d)", r.Off, r.End())
}

// BlockKey names a stored data block on a data provider. Because the
// version number of a write is only assigned *after* the data has been
// stored (two-phase write, Section III-A4), blocks are keyed by a
// client-chosen nonce unique per write operation rather than by version.
type BlockKey struct {
	Blob  ID
	Nonce uint64 // unique per write operation
	Seq   uint32 // block index within the write's payload
}

func (k BlockKey) String() string { return string(k.AppendText(make([]byte, 0, 48))) }

// AppendText appends the key's text, the name it is stored under
// (String), to b: a caller that reuses b names a block without allocating.
func (k BlockKey) AppendText(b []byte) []byte {
	return strconv.AppendUint(k.appendPrefix(b), uint64(k.Seq), 10)
}

func (k BlockKey) appendPrefix(b []byte) []byte {
	b = strconv.AppendUint(append(b, 'b'), uint64(k.Blob), 10)
	b = strconv.AppendUint(append(b, '/'), k.Nonce, 16)
	return append(b, '/')
}

// WritePrefix returns the store-key prefix shared by every block the
// write operation (blob + nonce) stored, and by no other write: the
// trailing separator keeps nonce 0x1 from matching nonce 0x12. Provider
// garbage collection deletes by this prefix.
func (k BlockKey) WritePrefix() string {
	return string(k.appendPrefix(make([]byte, 0, 40)))
}

// KeyPrefix is the first byte of every serialized BlockKey — the store
// namespace holding block payloads (metadata nodes live under "t").
// Block reports enumerate it.
const KeyPrefix = "b"

// ParseBlockKey inverts BlockKey.String: it parses a store key of the
// form "b<blob>/<nonce hex>/<seq>" back into its components. Provider
// block reports round-trip their inventory through this.
func ParseBlockKey(s string) (BlockKey, error) {
	var k BlockKey
	if len(s) < 2 || s[0] != 'b' {
		return k, fmt.Errorf("blob: malformed block key %q", s)
	}
	if _, err := fmt.Sscanf(s[1:], "%d/%x/%d", &k.Blob, &k.Nonce, &k.Seq); err != nil {
		return k, fmt.Errorf("blob: malformed block key %q: %w", s, err)
	}
	if k.String() != s {
		return k, fmt.Errorf("blob: malformed block key %q", s)
	}
	return k, nil
}

// Meta is the per-blob static configuration fixed at creation time.
type Meta struct {
	ID          ID
	BlockSize   int64 // striping unit; 64 MB in the paper's experiments
	Replication int   // number of providers storing each block
}

// Validate checks the configuration invariants.
func (m Meta) Validate() error {
	if m.BlockSize <= 0 {
		return errors.New("blob: block size must be positive")
	}
	if m.Replication < 1 {
		return errors.New("blob: replication must be >= 1")
	}
	return nil
}

// WriteKind distinguishes writes at an explicit offset from appends
// whose offset is fixed by the version manager at assignment time.
type WriteKind uint8

const (
	// KindWrite is a write at a caller-specified offset.
	KindWrite WriteKind = iota
	// KindAppend is an append; the offset is the size of the previous
	// snapshot, decided by the version manager.
	KindAppend
)

func (k WriteKind) String() string {
	if k == KindAppend {
		return "append"
	}
	return "write"
}

// WriteDesc describes one committed-or-in-progress write: the version it
// was assigned, the byte range it covers, the blob size after it, and
// where its blocks live. The ordered sequence of WriteDescs is the
// blob's history; it is the "hint" the version manager hands to writers
// so they can weave metadata concurrently with lower-version writers
// still in progress, and the index a reader names each block's replicas
// from.
type WriteDesc struct {
	Version   Version
	Off       int64
	Len       int64
	SizeAfter int64
	Kind      WriteKind
	Nonce     uint64 // the writer's block-key nonce: block i is BlockKey{Blob, Nonce, i}
	Aborted   bool   // true if the VM aborted the write: it wrote nothing, and no snapshot reads its blocks
	// Replicas is the write's placement: block i's replica addresses,
	// primary first, are Replicas[i*R : (i+1)*R] at the blob's
	// replication R. Nil when the writer sent none. A repair's
	// relocation replaces it (History.SetReplicas); nothing changes it in
	// place: descriptors with the same placement share it.
	Replicas []string
}

// Range returns the byte range covered by the write.
func (d WriteDesc) Range() Range { return Range{Off: d.Off, Len: d.Len} }

// Equal reports whether d and o describe the same write, placement
// included.
func (d WriteDesc) Equal(o WriteDesc) bool {
	return d.Version == o.Version && d.Off == o.Off && d.Len == o.Len && d.SizeAfter == o.SizeAfter &&
		d.Kind == o.Kind && d.Nonce == o.Nonce && d.Aborted == o.Aborted && slices.Equal(d.Replicas, o.Replicas)
}

// CheckPlacement reports whether the write's placement fits it in a
// blob of configuration m: none at all (a writer that sent none), or
// m.Replication non-empty addresses for each of its blocks. It also
// refuses a range no write can have, so that whoever indexes d by block
// stays in bounds.
func (d WriteDesc) CheckPlacement(m Meta) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if d.Off < 0 || d.Len < 0 || d.Off > math.MaxInt64-d.Len || d.Off%m.BlockSize != 0 {
		return fmt.Errorf("blob: version %d writes [%d,+%d), no block-aligned range", d.Version, d.Off, d.Len)
	}
	n, k := Blocks(d.Len, m.BlockSize), int64(len(d.Replicas))
	if k > 0 && (n > k || n*int64(m.Replication) != k || slices.Contains(d.Replicas, "")) {
		return fmt.Errorf("blob: version %d: a placement of %d addresses, not %d non-empty ones for each of %d blocks",
			d.Version, k, m.Replication, n)
	}
	return nil
}

// History is the dense, version-ordered sequence of write descriptors of
// one blob. Descs[i] has Version == i+1. The version manager owns the
// authoritative history, clients keep a cached prefix and extend it from
// AssignVersion/GetHistory replies. The owner serializes its own calls;
// what it hands out through View and Since is read-only and needs no
// lock: the backing array is only ever appended to, and an entry that
// really changes (Extend, MarkAborted, SetReplicas) is written to a fresh
// copy.
// Descs is for reading; change a history through its methods only.
//
// Beside Descs a history keeps an index for LatestIntersecting: for every
// complete run of spanFan versions, of spanFan such runs, and so on up,
// the byte range all their writes fall in. It is kept append-only like
// Descs and shared by views the same way. A history made from a Descs
// literal starts without one, and LatestIntersecting scans what it does
// not cover; its first Append or Extend indexes it all.
type History struct {
	Descs  []WriteDesc
	shared bool // a view may alias Descs: copy before changing an entry
	spans  [spanLevels][]span
}

// The index's shape: a group at level l covers spanFan groups of level
// l-1 (level 0: spanFan versions), so a group of level l holds
// 1<<(spanShift*(l+1)) versions and the top level skips 16^6 at a time.
const (
	spanShift  = 4
	spanFan    = 1 << spanShift
	spanLevels = 6
)

// span is a half-open byte range [lo, hi) holding every byte a group of
// versions wrote; lo == hi when none wrote any.
type span struct{ lo, hi int64 }

func spanOf(r Range) span {
	if r.IsEmpty() {
		return span{}
	}
	return span{r.Off, r.End()}
}

func (s span) union(o span) span {
	switch {
	case o.lo == o.hi:
		return s
	case s.lo == s.hi:
		return o
	}
	return span{min(s.lo, o.lo), max(s.hi, o.hi)}
}

func (s span) intersects(r Range) bool { return s.lo < s.hi && s.lo < r.End() && r.Off < s.hi }

// reindex extends the index over every group Descs completes.
func (h *History) reindex() {
	for l := range h.spans {
		children := len(h.Descs)
		if l > 0 {
			children = len(h.spans[l-1])
		}
		for g := len(h.spans[l]); (g+1)*spanFan <= children; g++ {
			var sp span
			for i := g * spanFan; i < (g+1)*spanFan; i++ {
				if l == 0 {
					sp = sp.union(spanOf(h.Descs[i].Range()))
				} else {
					sp = sp.union(h.spans[l-1][i])
				}
			}
			h.spans[l] = append(h.spans[l], sp)
		}
	}
}

// Since returns the descriptors of versions > since, in O(1), as a
// read-only slice that later changes to h never show through.
func (h *History) Since(since Version) []WriteDesc {
	n := len(h.Descs)
	if int(since) >= n {
		return nil
	}
	h.shared = true
	return h.Descs[since:n:n]
}

// View returns the history as recorded so far, in O(1), for a reader
// that outlives the owner's lock (a metadata build).
// The view is a value: changes to either side never reach the other.
func (h *History) View() History {
	v := History{Descs: h.Since(0), shared: true}
	for l, s := range h.spans {
		v.spans[l] = s[:len(s):len(s)]
	}
	return v
}

// set overwrites entry idx unless it already equals d. An entry whose
// range changes takes the index groups holding it out, to be made again;
// capped, so that making them again cannot write where a view reads.
func (h *History) set(idx int, d WriteDesc) {
	old := h.Descs[idx]
	if old.Equal(d) {
		return
	}
	if h.shared {
		h.Descs, h.shared = slices.Clone(h.Descs), false
	}
	h.Descs[idx] = d
	if old.Range() != d.Range() {
		for l, s := range h.spans {
			if g := idx >> (spanShift * (l + 1)); g < len(s) {
				h.spans[l] = s[:g:g]
			}
		}
		h.reindex()
	}
}

// MarkAborted flags version v as aborted; false if v is not recorded.
func (h *History) MarkAborted(v Version) bool {
	d, ok := h.Desc(v)
	if ok {
		d.Aborted = true
		h.set(int(v)-1, d)
	}
	return ok
}

// SetReplicas replaces version v's placement with replicas (a
// relocation); false if v is not recorded. Where a view may alias the
// entry, the history is copied first, so what was handed out never
// changes: a call costs O(versions) then.
func (h *History) SetReplicas(v Version, replicas []string) bool {
	d, ok := h.Desc(v)
	if ok {
		d.Replicas = replicas
		h.set(int(v)-1, d)
	}
	return ok
}

// Len returns the number of versions recorded.
func (h *History) Len() int { return len(h.Descs) }

// Latest returns the highest version recorded (NoVersion if none).
func (h *History) Latest() Version { return Version(len(h.Descs)) }

// Desc returns the descriptor for version v.
func (h *History) Desc(v Version) (WriteDesc, bool) {
	if v == NoVersion || int(v) > len(h.Descs) {
		return WriteDesc{}, false
	}
	return h.Descs[v-1], true
}

// SizeAt returns the blob size as of version v (0 for NoVersion).
func (h *History) SizeAt(v Version) int64 {
	if v == NoVersion {
		return 0
	}
	d, ok := h.Desc(v)
	if !ok {
		return -1
	}
	return d.SizeAfter
}

// Append extends the history with d; d.Version must be the next dense
// version.
func (h *History) Append(d WriteDesc) error {
	if d.Version != Version(len(h.Descs))+1 {
		return fmt.Errorf("blob: history gap: have %d versions, appending version %d", len(h.Descs), d.Version)
	}
	h.Descs = append(h.Descs, d)
	h.reindex()
	return nil
}

// Extend merges a contiguous descriptor suffix fetched from the version
// manager into the local cache. Overlapping entries that differ are
// overwritten (an in-flight writer's entry may since have been aborted).
func (h *History) Extend(descs []WriteDesc) error {
	for _, d := range descs {
		idx := int(d.Version) - 1
		switch {
		case idx < 0:
			return fmt.Errorf("blob: descriptor with version 0")
		case idx < len(h.Descs):
			h.set(idx, d)
		case idx == len(h.Descs):
			h.Descs = append(h.Descs, d)
		default:
			h.reindex()
			return fmt.Errorf("blob: history gap: have %d versions, got version %d", len(h.Descs), d.Version)
		}
	}
	h.reindex()
	return nil
}

// LatestIntersecting returns the newest version w <= upTo whose write
// range intersects r (NoVersion if none). Aborted versions still count,
// so a tree may borrow from one whose nodes were never written; readers
// never follow such a reference: they name blocks from the block index
// (mdtree.Owners), which skips aborted versions.
//
// It scans back from upTo and skips, whole, the largest indexed group
// ending where it stands whose writes all miss r. An append's left
// siblings are answered by versions about as old as the bytes they
// cover, so a build costs O(log n) steps per sibling, not O(n).
func (h *History) LatestIntersecting(r Range, upTo Version) Version {
	if upTo > Version(len(h.Descs)) {
		upTo = Version(len(h.Descs))
	}
	// A blob never shrinks, so a range at or past its size as of upTo
	// (every right-hand sibling an append asks about) was written by no
	// version that old.
	if upTo >= 1 && r.Off >= h.Descs[upTo-1].SizeAfter {
		return NoVersion
	}
	for v := int(upTo); v >= 1; {
		if v%spanFan == 0 { // a group may end here
			if w := h.missingRun(r, v); w > 0 {
				v -= w
				continue
			}
		}
		// One by one down to where the next group ends.
		lo := (v - 1) &^ (spanFan - 1)
		run := h.Descs[lo:v]
		for i := len(run) - 1; i >= 0; i-- {
			if run[i].Range().Intersects(r) {
				return Version(lo + i + 1)
			}
		}
		v = lo
	}
	return NoVersion
}

// missingRun returns how many versions up to v make the largest indexed
// group that ends at v and wrote nothing in r; 0 when there is none.
func (h *History) missingRun(r Range, v int) int {
	// A group of level l ends at v when v is a multiple of its width.
	for l := min(bits.TrailingZeros(uint(v))/spanShift, spanLevels) - 1; l >= 0; l-- {
		shift := spanShift * (l + 1)
		if g := v >> shift; g <= len(h.spans[l]) && !h.spans[l][g-1].intersects(r) {
			return 1 << shift
		}
	}
	return 0
}

// Blocks returns the number of blocks needed to hold size bytes given
// blockSize striping.
func Blocks(size, blockSize int64) int64 { return util.CeilDiv(size, blockSize) }

// SpanBytes returns the byte span covered by the segment-tree root of a
// snapshot holding size bytes: the smallest power-of-two number of
// blocks covering the size, times the block size (minimum one block).
func SpanBytes(size, blockSize int64) int64 {
	return util.NextPow2(Blocks(size, blockSize)) * blockSize
}
