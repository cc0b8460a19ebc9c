package vmanager

import (
	"errors"
	"fmt"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/wal"
	"blobseer/internal/wire"
)

// WAL record types. The version manager logs every state mutation —
// create/assign/commit/abort/prune/relocate — and recovery replays them into a
// fresh State. Records are self-contained (they carry the values the
// mutation *produced*, e.g. the assigned version and fixed offset), so
// replay never re-runs validation or re-derives anything.
const (
	recCreate uint8 = iota + 1
	// 2 was an assign logged before descriptors carried their
	// placement; recovery refuses one (errNoPlacement).
	recAssignUnplaced
	recCommit
	recAbort
	recPrune
	recAssign
	recRelocate
)

// errNoPlacement fails the recovery of a log written before the version
// manager logged each write's placement: its descriptors could not tell
// a reader where any block lives. Clients, daemons and their logs are
// rebuilt together across that change.
var errNoPlacement = errors.New("vmanager: the log predates write placements (an assign without its replica addresses); it cannot be recovered by this version manager")

// snapPlaced opens every snapshot whose descriptors carry their
// placement. An older snapshot opens with its next blob ID, whose top
// four bytes are zero.
const snapPlaced uint32 = 0x706c6163 // "plac"

// encodeCreate -> recCreate | id | blockSize | replication
func encodeCreate(m blob.Meta) []byte {
	b := wire.NewBuffer(32)
	b.U8(recCreate)
	b.U64(uint64(m.ID))
	b.I64(m.BlockSize)
	b.U32(uint32(m.Replication))
	return b.Bytes()
}

// encodeAssign -> recAssign | id | descs (the one, placement included)
// | assignUnixNano. The assign time rides along so a recovered manager's
// dead-writer janitor still fires for writes that were in flight at the
// crash: their age is measured from the original assignment, not from
// the restart.
func encodeAssign(id blob.ID, d blob.WriteDesc, at time.Time) []byte {
	b := wire.NewBuffer(96)
	b.U8(recAssign)
	b.U64(uint64(id))
	encodeDescs(b, []blob.WriteDesc{d})
	b.I64(at.UnixNano())
	return b.Bytes()
}

func encodeVersionRec(t uint8, id blob.ID, v blob.Version) []byte {
	b := wire.NewBuffer(24)
	b.U8(t)
	b.U64(uint64(id))
	b.U64(uint64(v))
	return b.Bytes()
}

// Recover rebuilds a version-manager State from the log (snapshot
// first, then the record suffix) and attaches the log, so subsequent
// mutations are journaled and the log compacts itself. A fresh/empty
// log yields a fresh State, so this is the only constructor the durable
// deployment path needs. si names the shard, as for NewState (nil:
// unsharded). Each shard journals only the blobs it owns into its own
// log, so shard recovery is fully independent of its siblings; a log
// written under another shard topology fails loudly instead of
// silently merging foreign state.
//
// Replay is idempotent: records already reflected in the state (e.g.
// folded into the snapshot, or replayed twice) are skipped, so
// recovering from a log that was already recovered once produces the
// same state.
func Recover(log *wal.Log, si *ShardInfo) (*State, error) {
	s := NewState(si)
	err := log.Replay(func(p []byte, isSnap bool) error {
		if isSnap {
			return s.loadSnapshot(p)
		}
		return s.applyRecord(p)
	})
	if err != nil {
		return nil, fmt.Errorf("vmanager: recover: %w", err)
	}
	s.log = log
	log.Compact(s.snapshot)
	return s, nil
}

func (s *State) shardMismatch(id blob.ID) error {
	return fmt.Errorf("vmanager: blob %d is not owned by shard %d/%d (log written under a different shard topology?)",
		id, s.shard.Index, s.shard.Count)
}

// applyRecord decodes one WAL record and applies it through the apply
// function the live mutator calls after journaling it, unless the state
// already reflects it (a record folded into the snapshot, or replayed
// twice). An abort publishes as it does live; the commit record a log
// may hold after it is then a no-op.
func (s *State) applyRecord(p []byte) error {
	r := wire.NewReader(p)
	t := r.U8()
	id := blob.ID(r.U64())
	if !s.Owns(id) {
		return s.shardMismatch(id)
	}
	st := s.stripeFor(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	if t == recCreate {
		m := blob.Meta{ID: id, BlockSize: r.I64(), Replication: int(r.U32())}
		if err := r.Err(); err != nil {
			return err
		}
		if _, ok := st.blobs[id]; !ok { // else already applied
			s.applyCreate(st, m)
		}
		return nil
	}
	if t == recAssignUnplaced {
		return fmt.Errorf("%w: blob %d", errNoPlacement, id)
	}
	bs, ok := st.blobs[id]
	if !ok {
		return fmt.Errorf("vmanager: record type %d for unknown blob %d", t, id)
	}
	switch t {
	case recAssign:
		ds, err := decodeDescs(r, &s.placements, nil)
		at := time.Unix(0, r.I64())
		if err == nil && len(ds) != 1 {
			err = fmt.Errorf("vmanager: an assign record of %d descriptors", len(ds))
		}
		if err := errors.Join(err, r.Err()); err != nil {
			return err
		}
		if ds[0].Version > bs.hist.Latest() { // else already applied
			return bs.applyAssign(ds[0], at)
		}
	case recCommit, recAbort:
		v := blob.Version(r.U64())
		if err := r.Err(); err != nil {
			return err
		}
		if v == blob.NoVersion || v > bs.hist.Latest() {
			return fmt.Errorf("vmanager: record type %d for unassigned version %d of blob %d", t, v, id)
		}
		bs.applyResolve(v, t == recAbort)
	case recPrune:
		keep := blob.Version(r.U64())
		if err := r.Err(); err != nil {
			return err
		}
		bs.applyPrune(keep)
	case recRelocate:
		moves, err := decodeMoves(r, id, &s.placements)
		if err != nil {
			return err
		}
		return bs.applyRelocate(moves, &s.placements) // skips moves already applied
	default:
		return fmt.Errorf("vmanager: unknown WAL record type %d", t)
	}
	return nil
}

// appendStriped journals the record rec encodes if a log is attached;
// without one nothing is encoded. It is the middle step of every
// mutation: the caller validates without changing anything, and applies
// the record, through the apply replay calls, only once this returned
// nil, so a refused record changes nothing. Callers hold the stripe
// lock of the blob the record is about, which orders its records as its
// mutations, the property replay depends on. The record is on disk
// before this returns, so no acknowledged mutation — an assigned
// version number included — is lost to a crash.
func (s *State) appendStriped(rec func() []byte) error {
	if s.log == nil {
		return nil
	}
	return s.log.AppendSync(rec())
}

// encodeSnapshotAllLocked serializes the full state. Callers hold
// every stripe lock and idMu. Layout: u32 snapPlaced | u64 nextID | u32
// nblobs | per blob: id, blockSize, replication, descs, committed
// bools, published, prunedBelow, assigned (v, unixNano) pairs.
func (s *State) encodeSnapshotAllLocked() []byte {
	b := wire.NewBuffer(256)
	b.U32(snapPlaced)
	b.U64(uint64(s.nextID))
	n := 0
	for i := range s.stripes {
		n += len(s.stripes[i].blobs)
	}
	b.U32(uint32(n))
	for i := range s.stripes {
		for id, bs := range s.stripes[i].blobs {
			b.U64(uint64(id))
			b.I64(bs.meta.BlockSize)
			b.U32(uint32(bs.meta.Replication))
			encodeDescs(b, bs.hist.Descs)
			b.U32(uint32(len(bs.committed)))
			for _, c := range bs.committed {
				b.Bool(c)
			}
			b.U64(uint64(bs.published))
			b.U64(uint64(bs.prunedBelow))
			b.U32(uint32(len(bs.assigned)))
			for v, at := range bs.assigned {
				b.U64(uint64(v))
				b.I64(at.UnixNano())
			}
		}
	}
	return b.Bytes()
}

func (s *State) loadSnapshot(p []byte) error {
	r := wire.NewReader(p)
	if r.U32() != snapPlaced {
		return fmt.Errorf("%w: a snapshot without the placement mark", errNoPlacement)
	}
	nextID := blob.ID(r.U64())
	n := r.U32()
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		st.blobs = make(map[blob.ID]*blobState)
		st.mu.Unlock()
	}
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		id := blob.ID(r.U64())
		bs := &blobState{
			meta:     blob.Meta{ID: id, BlockSize: r.I64(), Replication: int(r.U32())},
			assigned: make(map[blob.Version]time.Time),
		}
		var err error
		if bs.hist.Descs, err = decodeDescs(r, &s.placements, nil); err != nil {
			return fmt.Errorf("vmanager: corrupt snapshot (history): %w", err)
		}
		nc := r.U32()
		if r.Err() != nil || nc > uint32(r.Remaining()) {
			return errors.New("vmanager: corrupt snapshot (committed run)")
		}
		bs.committed = make([]bool, nc)
		for j := uint32(0); j < nc; j++ {
			bs.committed[j] = r.Bool()
		}
		bs.published = blob.Version(r.U64())
		bs.prunedBelow = blob.Version(r.U64())
		na := r.U32()
		if r.Err() != nil || na > uint32(r.Remaining()) {
			return errors.New("vmanager: corrupt snapshot (assigned run)")
		}
		for j := uint32(0); j < na; j++ {
			v := blob.Version(r.U64())
			bs.assigned[v] = time.Unix(0, r.I64())
		}
		if !s.Owns(id) {
			return s.shardMismatch(id)
		}
		st := s.stripeFor(id)
		st.mu.Lock()
		st.blobs[id] = bs
		st.mu.Unlock()
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("vmanager: corrupt snapshot: %w", err)
	}
	s.idMu.Lock()
	if nextID > s.nextID {
		s.nextID = nextID
	}
	s.idMu.Unlock()
	return nil
}

// snapshot is the log's compaction (wal.Log.Compact): it saves the
// state as a snapshot and compacts the log behind it. Every stripe lock
// (and the minting lock) is held across the write, so the saved state
// is exactly the log prefix it supersedes; version-manager operations
// pause for the duration.
func (s *State) snapshot() error {
	s.lockAll()
	defer s.unlockAll()
	s.idMu.Lock()
	defer s.idMu.Unlock()
	return s.log.SaveSnapshot(s.encodeSnapshotAllLocked())
}

// CloseWAL closes the attached log (graceful shutdown). The log stays
// attached, so a mutation after it fails with the log's "closed" error
// instead of being acknowledged unjournaled.
func (s *State) CloseWAL() error {
	if s.log == nil {
		return nil
	}
	return s.log.Close()
}
