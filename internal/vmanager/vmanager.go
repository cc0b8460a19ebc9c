// Package vmanager implements BlobSeer's version manager (Section
// III-B): the entity that assigns snapshot version numbers, fixes
// append offsets, and controls when new snapshots are revealed to
// readers. Version assignment is the *only* serialization point of the
// whole write path; everything before (data transfer) and after
// (metadata weaving) runs fully in parallel across writers.
//
// Publication ordering implements the paper's linearizability rule: a
// snapshot v becomes visible only when every version <= v has been
// committed with its metadata, or aborted, so readers always observe
// consistent, immutable snapshots.
//
// Serialization is per *blob*, not global, and the manager scales on
// both axes:
//
//   - Vertically, State stripes its blob table across numStripes locks
//     (blob -> stripe by hash of the ID), so writers to unrelated blobs
//     never contend and the dead-writer janitor's Expired scan pauses
//     one stripe at a time instead of freezing every publish.
//   - Horizontally, K independent shard services each own the blob IDs
//     congruent to their index mod K (see ShardInfo and Client). IDs
//     are minted shard-locally with stride K, so shards never
//     coordinate — not even for CreateBlob.
//
// An append onto an unaligned end carries the tail of its base (the
// snapshot it read) and lands at the tail's block boundary, unless a
// later version wrote there (ErrEndMoved: the client retries on a newer
// base, see core.Blob.Append). If the janitor aborts it, the tail it
// carried reads as it did before, as under any aborted write.
//
// A service answers ten RPC methods. Writers call CreateBlob,
// AssignVersion (which carries the write's placement: every block's
// replica addresses, and an append's base), Commit and Abort. Readers call Latest and
// WaitPublished: each reply is the blob's Head (meta, published
// version, prune point, size), then a page of the published history,
// placements included, so one call pins a snapshot and tells where
// every block of it lives. GC and repair add ListBlobs and Prune, and
// repair Relocate: the version manager is the one authority on where a
// block lives, and a copy repair pushes off a dead provider takes that
// replica's place in its write's placement. A reader whose every
// replica of a block failed asks Replicas once for where it lives now.
// Methods 2, 7, 8, 12, 13 and 14 are retired and answer "unknown
// method".
//
// With a log attached (Recover), every mutation runs in three steps:
// validate without changing anything, journal its record, then apply
// the record through the one apply function replay also calls
// (applyCreate, applyAssign, applyResolve, applyPrune, applyRelocate). A refused
// record — invalid, or one the log failed to write — changes nothing,
// and a log that failed a write or an fsync refuses every later record,
// so the live state never holds a mutation recovery would not rebuild.
package vmanager

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/rpc"
	"blobseer/internal/wal"
)

// Sentinel validation errors, each with its RPC status code (20-29),
// so that a client matches them across the wire.
var (
	// ErrUnknownBlob is returned for operations on nonexistent blobs.
	ErrUnknownBlob = rpc.CodedError(20, "vmanager: unknown blob")
	// ErrUnaligned is returned when a write offset (or an append without
	// a base onto an unaligned end) violates the block-alignment rule.
	ErrUnaligned = rpc.CodedError(21, "vmanager: offset not block-aligned")
	// ErrBadRange is returned for empty or mid-blob partial-block writes.
	ErrBadRange = rpc.CodedError(22, "vmanager: invalid write range")
	// ErrBadVersion is returned for commits/aborts of unassigned versions.
	ErrBadVersion = rpc.CodedError(23, "vmanager: no such assigned version")
	// ErrTimeout is returned by WaitPublished when the deadline passes.
	ErrTimeout = rpc.CodedError(24, "vmanager: wait timed out")
	// ErrPruned is returned when reading a version that Prune discarded.
	ErrPruned = rpc.CodedError(25, "vmanager: version garbage-collected")
	// ErrBadPrune is returned for prune points beyond the published version.
	ErrBadPrune = rpc.CodedError(26, "vmanager: prune point not published yet")
	// ErrAborted is returned for the commit of a version that was
	// aborted: no reader will see what its writer wrote.
	ErrAborted = rpc.CodedError(27, "vmanager: version aborted")
	// ErrBadPlacement is returned for an assign whose placement does not
	// fit its write: not R non-empty addresses for each of its blocks.
	ErrBadPlacement = rpc.CodedError(28, "vmanager: malformed placement")
	// ErrEndMoved refuses an append that carries its base's tail when a
	// version after the base wrote at or past the tail's block boundary.
	ErrEndMoved = rpc.CodedError(29, "vmanager: the blob's end moved since the append's base")
)

// ShardInfo identifies one horizontal shard of the version-manager
// control plane: this service owns exactly the blob IDs id with
// ShardOf(id, Count) == Index. The zero value (normalized to 0/1) is
// the classic unsharded manager.
type ShardInfo struct {
	Index int // this shard's index in [0, Count)
	Count int // total shards in the deployment
}

func (si ShardInfo) normalize() ShardInfo {
	if si.Count < 1 {
		si.Count = 1
	}
	if si.Index < 0 || si.Index >= si.Count {
		panic(fmt.Sprintf("vmanager: shard index %d out of range [0,%d)", si.Index, si.Count))
	}
	return si
}

// firstID is the smallest ID this shard mints. Shard IDs advance with
// stride Count, so shard k mints k, k+K, k+2K, ... — except that ID 0
// means "no blob" throughout the codebase, so shard 0 starts at K. A
// single-shard deployment keeps the historical 1, 2, 3, ... sequence.
func (si ShardInfo) firstID() blob.ID {
	if si.Count <= 1 {
		return 1
	}
	if si.Index == 0 {
		return blob.ID(si.Count)
	}
	return blob.ID(si.Index)
}

// ShardOf is the routing rule shared by the minting side (State) and
// the client side (Client): blob id is owned by shard id mod shards.
func ShardOf(id blob.ID, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(uint64(id) % uint64(shards))
}

// numStripes is the lock-striping factor inside one State. Stripes are
// picked by a multiplicative hash of the blob ID (not id mod
// numStripes: sharded IDs advance with stride Count, and a plain
// modulus would alias the stride onto a subset of stripes).
const numStripes = 32

func stripeIndex(id blob.ID) int {
	return int((uint64(id) * 0x9E3779B97F4A7C15) >> 59) // top 5 bits
}

type stripe struct {
	mu    sync.Mutex
	blobs map[blob.ID]*blobState
}

// State is the version manager's pure core: all bookkeeping, no I/O.
// It is safe for concurrent use. The RPC Service wraps it; the
// large-scale simulator drives it directly.
//
// There is no global lock: per-blob bookkeeping lives in lock-striped
// tables, ID minting has its own mutex, and the WAL serializes appends
// internally. Replay only requires that records for one blob hit the
// log in mutation order, which holding the blob's stripe lock across
// mutation+append guarantees.
type State struct {
	shard ShardInfo

	idMu   sync.Mutex
	nextID blob.ID

	stripes [numStripes]stripe

	placements interner // the placements of every blob's history, shared

	// log, when non-nil, journals every mutation for crash recovery
	// (see recovery.go). Recover sets it before the State is shared and
	// nothing changes it afterwards; nil keeps the historical
	// purely-in-memory behavior (simulator, most tests).
	log *wal.Log
}

type blobState struct {
	meta      blob.Meta
	hist      blob.History
	committed []bool // per assigned version
	published blob.Version
	// prunedBelow is the oldest still-readable version: snapshots with
	// version < prunedBelow were garbage-collected. Descriptors are kept
	// forever (they are what makes concurrent metadata weaving and
	// liveness analysis possible); only node/block payloads are freed.
	prunedBelow blob.Version
	assigned    map[blob.Version]time.Time // in-flight versions -> assign time
	waiters     []waiter
}

type waiter struct {
	version blob.Version
	ch      chan struct{}
}

// NewState returns an empty version manager core owning shard si.Index
// of si.Count; a nil si means unsharded. It panics on an out-of-range
// index.
func NewState(si *ShardInfo) *State {
	var shard ShardInfo
	if si != nil {
		shard = *si
	}
	shard = shard.normalize()
	s := &State{shard: shard, nextID: shard.firstID()}
	for i := range s.stripes {
		s.stripes[i].blobs = make(map[blob.ID]*blobState)
	}
	return s
}

// Shard reports this manager's shard identity (0/1 when unsharded).
func (s *State) Shard() ShardInfo { return s.shard }

// Owns reports whether id routes to this shard.
func (s *State) Owns(id blob.ID) bool {
	return ShardOf(id, s.shard.Count) == s.shard.Index
}

func (s *State) stripeFor(id blob.ID) *stripe {
	return &s.stripes[stripeIndex(id)]
}

// lockAll acquires every stripe lock in index order (snapshot and
// shutdown paths). unlockAll releases them.
func (s *State) lockAll() {
	for i := range s.stripes {
		s.stripes[i].mu.Lock()
	}
}

func (s *State) unlockAll() {
	for i := range s.stripes {
		s.stripes[i].mu.Unlock()
	}
}

// CreateBlob registers a new empty BLOB and returns its metadata. The
// ID is minted shard-locally: id ≡ shard index (mod shard count), so
// IDs are globally unique across shards with zero coordination.
func (s *State) CreateBlob(blockSize int64, replication int) (blob.Meta, error) {
	m := blob.Meta{BlockSize: blockSize, Replication: replication}
	if err := m.Validate(); err != nil {
		return blob.Meta{}, err
	}
	s.idMu.Lock()
	m.ID = s.nextID
	s.nextID += blob.ID(s.shard.Count)
	s.idMu.Unlock()

	st := s.stripeFor(m.ID)
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := s.appendStriped(func() []byte { return encodeCreate(m) }); err != nil {
		return blob.Meta{}, err
	}
	s.applyCreate(st, m)
	return m, nil
}

// applyCreate registers the empty blob m and re-arms minting past its
// ID in this shard's residue class (IDs advance with stride Count),
// which only a replayed create needs. Callers hold st's lock; nothing
// takes a stripe lock while it holds idMu.
func (s *State) applyCreate(st *stripe, m blob.Meta) {
	st.blobs[m.ID] = &blobState{meta: m, assigned: make(map[blob.Version]time.Time)}
	s.idMu.Lock()
	if m.ID >= s.nextID {
		s.nextID = m.ID + blob.ID(s.shard.Count)
	}
	s.idMu.Unlock()
}

// Blobs lists all blob IDs in ascending order (CLI/debugging).
func (s *State) Blobs() []blob.ID {
	var out []blob.ID
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		for id := range st.blobs {
			out = append(out, id)
		}
		st.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Assignment is the reply to AssignVersion: the new version, its fixed
// byte range, and the descriptor suffix the client was missing (its
// weaving "hint", which includes descriptors of in-progress writers).
// Descs is read-only: on the manager's side it is a view of the blob's
// history (blob.History.Since).
type Assignment struct {
	Version blob.Version
	Off     int64
	Size    int64 // blob size after this write
	Descs   []blob.WriteDesc
}

// AssignVersion is Assign without a base.
func (s *State) AssignVersion(id blob.ID, kind blob.WriteKind, off, size int64, nonce uint64, since blob.Version, replicas ...string) (Assignment, error) {
	return s.Assign(id, kind, off, size, nonce, since, blob.NoVersion, replicas...)
}

// Assign validates the write, assigns the next version number
// (fixing the offset for appends), and returns the history delta since
// sinceVersion. An append onto an unaligned end names its base: the
// version whose tail, from the block boundary below its end, the
// append's data starts with. It lands at that boundary, unless a
// version after the base wrote at or past it (ErrEndMoved); one without
// a base lands at the end, which must be aligned (ErrUnaligned).
// replicas is the write's placement (blob.WriteDesc.Replicas),
// which readers name each block's replicas from: one that does not fit
// fails with ErrBadPlacement, and none at all is accepted (a read of a
// block such a version owns fails). This method is the write path's
// serialization point — per blob: writers to different blobs proceed
// through different stripes in parallel.
func (s *State) Assign(id blob.ID, kind blob.WriteKind, off, size int64, nonce uint64, since, base blob.Version, replicas ...string) (Assignment, error) {
	placed := s.placements.placement(replicas)
	st := s.stripeFor(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	bs, ok := st.blobs[id]
	if !ok {
		return Assignment{}, ErrUnknownBlob
	}
	if size <= 0 {
		return Assignment{}, fmt.Errorf("%w: size %d", ErrBadRange, size)
	}
	B := bs.meta.BlockSize
	cur := bs.hist.SizeAt(bs.hist.Latest()) // size incl. in-progress writers
	switch {
	case kind == blob.KindAppend && base > bs.hist.Latest():
		return Assignment{}, fmt.Errorf("%w: base %d", ErrBadVersion, base)
	case kind == blob.KindAppend && base != blob.NoVersion:
		end := bs.hist.SizeAt(base)
		off = end - end%B
		if w := bs.hist.LatestIntersecting(blob.Range{Off: off, Len: math.MaxInt64 - off}, bs.hist.Latest()); w > base {
			return Assignment{}, fmt.Errorf("%w: version %d wrote at or past %d after base %d", ErrEndMoved, w, off, base)
		}
	case kind == blob.KindAppend:
		off = cur
	}
	if off%B != 0 {
		return Assignment{}, fmt.Errorf("%w: %s at %d", ErrUnaligned, kind, off)
	}
	// Partial final blocks are only legal at (or past) EOF; a mid-blob
	// write must cover whole blocks, otherwise the new leaf would lose
	// bytes of the overwritten block.
	if size%B != 0 && off+size < cur {
		return Assignment{}, fmt.Errorf("%w: partial-block write [%d,%d) inside blob of size %d", ErrBadRange, off, off+size, cur)
	}
	v := bs.hist.Latest() + 1
	after := cur
	if off+size > after {
		after = off + size
	}
	d := blob.WriteDesc{Version: v, Off: off, Len: size, SizeAfter: after, Kind: kind, Nonce: nonce, Replicas: placed}
	if err := d.CheckPlacement(bs.meta); err != nil {
		return Assignment{}, fmt.Errorf("%w: %v", ErrBadPlacement, err)
	}
	at := time.Now()
	if err := s.appendStriped(func() []byte { return encodeAssign(id, d, at) }); err != nil {
		return Assignment{}, err
	}
	if err := bs.applyAssign(d, at); err != nil {
		return Assignment{}, err
	}
	return Assignment{Version: v, Off: off, Size: after, Descs: bs.hist.Since(since)}, nil
}

// applyAssign adds d, the blob's next version, to its history as in
// flight since at.
func (bs *blobState) applyAssign(d blob.WriteDesc, at time.Time) error {
	if err := bs.hist.Append(d); err != nil {
		return err
	}
	bs.committed = append(bs.committed, false)
	bs.assigned[d.Version] = at
	return nil
}

// Commit records that version v's data and metadata are fully written
// and publishes every version whose predecessors are all committed. A
// version that was aborted fails with ErrAborted: its writer's data
// will never be read.
func (s *State) Commit(id blob.ID, v blob.Version) error {
	st := s.stripeFor(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	bs, ok := st.blobs[id]
	if !ok {
		return ErrUnknownBlob
	}
	if v == blob.NoVersion || v > bs.hist.Latest() {
		return fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	if d, _ := bs.hist.Desc(v); d.Aborted {
		return fmt.Errorf("%w: %d", ErrAborted, v)
	}
	// Concurrent commits on other stripes issue their fsyncs in
	// parallel; the WAL coalesces them into shared group commits.
	if err := s.appendStriped(func() []byte { return encodeVersionRec(recCommit, id, v) }); err != nil {
		return err
	}
	bs.applyResolve(v, false)
	return nil
}

// applyResolve resolves v — committed, or aborted, which marks it so —
// and publishes what that lets through.
func (bs *blobState) applyResolve(v blob.Version, aborted bool) {
	if aborted {
		bs.hist.MarkAborted(v)
	}
	bs.committed[v-1] = true
	delete(bs.assigned, v)
	bs.advanceLocked()
}

// advanceLocked publishes consecutive committed versions and wakes
// satisfied waiters.
func (bs *blobState) advanceLocked() {
	for int(bs.published) < len(bs.committed) && bs.committed[bs.published] {
		bs.published++
	}
	kept := bs.waiters[:0]
	for _, w := range bs.waiters {
		if bs.published >= w.version {
			close(w.ch)
		} else {
			kept = append(kept, w)
		}
	}
	bs.waiters = kept
}

// Abort marks version v as failed and resolves it, so publication can
// advance past it, in one step and one log record. An aborted version
// needs no metadata: its descriptor carries the mark, and a reader's
// block index reads every block it owns as a hole (mdtree.Owners), so
// whatever its writer stored never shows.
func (s *State) Abort(id blob.ID, v blob.Version) error {
	st := s.stripeFor(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	bs, ok := st.blobs[id]
	if !ok {
		return ErrUnknownBlob
	}
	if v == blob.NoVersion || v > bs.hist.Latest() {
		return fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	if bs.committed[v-1] {
		return fmt.Errorf("vmanager: version %d already committed", v)
	}
	if err := s.appendStriped(func() []byte { return encodeVersionRec(recAbort, id, v) }); err != nil {
		return err
	}
	bs.applyResolve(v, true)
	return nil
}

// Head is a blob's state as one reply of the version manager reports
// it: everything a reader needs to pin a snapshot, read under one lock
// hold, so no part of it can move while another is read.
type Head struct {
	Meta      blob.Meta
	Published blob.Version
	Oldest    blob.Version // the prune point: versions below it are garbage-collected (1 if never pruned)
	Size      int64        // the blob's size at the version asked for, or at Published
}

// latestDescsCap is the page size of a blob's history: the most
// descriptors one LatestSince reply carries, 8,192 × 58 B = 475 KB on
// the wire for one-block writes at replication 3, however long the
// history. A reader further behind asks
// again from the last version it got (Client.LatestSince).
const latestDescsCap = 8192

// LatestSince is the call every reader (and BSFS open) issues first:
// the blob's head, with its size at version at (at Published when at is
// NoVersion or not yet published), plus the first page of the
// descriptors of (since, published] as a read-only view — the hint
// AssignVersion hands a writer, so the reader names every block's
// replicas from it and reads no metadata tree. Published versions only
// (their ranges and nonces can no longer change or vanish; a placement
// changes only by Relocate), at most latestDescsCap of them, and none
// for a since at or past the published version.
func (s *State) LatestSince(id blob.ID, since, at blob.Version) (Head, []blob.WriteDesc, error) {
	st := s.stripeFor(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	bs, ok := st.blobs[id]
	if !ok {
		return Head{}, nil, ErrUnknownBlob
	}
	if at == blob.NoVersion || at > bs.published {
		at = bs.published
	}
	h := Head{Meta: bs.meta, Published: bs.published, Oldest: max(bs.prunedBelow, 1), Size: bs.hist.SizeAt(at)}
	var descs []blob.WriteDesc
	if n := min(bs.published-since, latestDescsCap); since < bs.published {
		descs = bs.hist.Since(since)[:n:n]
	}
	return h, descs, nil
}

// Prune advances the blob's oldest readable version to keep: versions
// < keep become unreadable and their storage may be reclaimed. It
// returns the previous prune point, so the caller garbage-collects
// exactly the versions in [from, keep). keep must already be
// published (in-flight writers always hold higher versions). Pruning
// below the current point is a no-op (from == keep). Write
// descriptors are never discarded — only data and metadata payloads.
//
// Note the paper's contract: old snapshots stay readable only "as long
// as they have not been garbaged". A reader pinned to a version below
// keep fails once the sweep completes.
func (s *State) Prune(id blob.ID, keep blob.Version) (from blob.Version, err error) {
	st := s.stripeFor(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	bs, ok := st.blobs[id]
	if !ok {
		return 0, ErrUnknownBlob
	}
	if keep == blob.NoVersion || keep > bs.published {
		return 0, fmt.Errorf("%w: keep %d, published %d", ErrBadPrune, keep, bs.published)
	}
	from = bs.prunedBelow
	if from == blob.NoVersion {
		from = 1
	}
	if keep <= from {
		return keep, nil
	}
	if err := s.appendStriped(func() []byte { return encodeVersionRec(recPrune, id, keep) }); err != nil {
		return 0, err
	}
	bs.applyPrune(keep)
	return from, nil
}

// applyPrune advances the prune point to keep; a point at or below the
// current one changes nothing.
func (bs *blobState) applyPrune(keep blob.Version) {
	bs.prunedBelow = max(bs.prunedBelow, keep)
}

// WaitPublished blocks until version v is published or the timeout
// expires (timeout <= 0 waits forever), which it reports as
// ErrTimeout. This is the paper's "mechanism that allows the client to
// find out when new snapshot versions are available".
func (s *State) WaitPublished(id blob.ID, v blob.Version, timeout time.Duration) error {
	st := s.stripeFor(id)
	st.mu.Lock()
	bs, ok := st.blobs[id]
	if !ok {
		st.mu.Unlock()
		return ErrUnknownBlob
	}
	if bs.published >= v {
		st.mu.Unlock()
		return nil
	}
	ch := make(chan struct{})
	bs.waiters = append(bs.waiters, waiter{version: v, ch: ch})
	st.mu.Unlock()

	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case <-ch:
	case <-timer:
		// Deregister, or every timed-out poll would leak its waiter
		// slot (and channel) in bs.waiters until publication.
		st.mu.Lock()
		for i, w := range bs.waiters {
			if w.ch == ch {
				bs.waiters = append(bs.waiters[:i], bs.waiters[i+1:]...)
				break
			}
		}
		st.mu.Unlock()
	}
	// The publish may have raced the timer; a waiter woken by
	// ReleaseWaiters (shutdown, crash) finds v unpublished and reports
	// a timeout, never a false success.
	st.mu.Lock()
	defer st.mu.Unlock()
	if bs.published < v {
		return ErrTimeout
	}
	return nil
}

// PendingWaiters returns the number of registered WaitPublished
// waiters for a blob (tests, leak diagnostics).
func (s *State) PendingWaiters(id blob.ID) int {
	st := s.stripeFor(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	bs, ok := st.blobs[id]
	if !ok {
		return 0
	}
	return len(bs.waiters)
}

// ReleaseWaiters wakes every registered WaitPublished waiter across
// all blobs. Woken waiters whose version has not published report
// ErrTimeout. Used at shutdown and by the chaos harness: a crashing
// manager must not leave handlers blocked (they would stall the
// server drain for their full wait timeout).
func (s *State) ReleaseWaiters() {
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		for _, bs := range st.blobs {
			for _, w := range bs.waiters {
				close(w.ch)
			}
			bs.waiters = nil
		}
		st.mu.Unlock()
	}
}

// Expired returns in-flight (blob, version) pairs assigned longer than
// maxAge ago. The service's janitor aborts them — the dead-writer
// recovery path. The scan walks one stripe at a time, so publishes on
// the other 31 stripes proceed while it runs.
func (s *State) Expired(maxAge time.Duration) []struct {
	Blob    blob.ID
	Version blob.Version
} {
	var out []struct {
		Blob    blob.ID
		Version blob.Version
	}
	cutoff := time.Now().Add(-maxAge)
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		for id, bs := range st.blobs {
			for v, at := range bs.assigned {
				if at.Before(cutoff) {
					out = append(out, struct {
						Blob    blob.ID
						Version blob.Version
					}{id, v})
				}
			}
		}
		st.mu.Unlock()
	}
	return out
}
