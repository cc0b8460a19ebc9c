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
// create/assign/commit/abort/prune — and recovery replays them into a
// fresh State. Records are self-contained (they carry the values the
// mutation *produced*, e.g. the assigned version and fixed offset), so
// replay never re-runs validation or re-derives anything.
const (
	recCreate uint8 = iota + 1
	recAssign
	recCommit
	recAbort
	recPrune
)

// encodeCreate -> recCreate | id | blockSize | replication
func encodeCreate(m blob.Meta) []byte {
	b := wire.NewBuffer(32)
	b.U8(recCreate)
	b.U64(uint64(m.ID))
	b.I64(m.BlockSize)
	b.U32(uint32(m.Replication))
	return b.Bytes()
}

// encodeAssign -> recAssign | id | desc | assignUnixNano. The assign
// time rides along so a recovered manager's dead-writer janitor still
// fires for writes that were in flight at the crash: their age is
// measured from the original assignment, not from the restart.
func encodeAssign(id blob.ID, d blob.WriteDesc, at time.Time) []byte {
	b := wire.NewBuffer(64)
	b.U8(recAssign)
	b.U64(uint64(id))
	encodeDesc(b, d)
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

// Recover rebuilds a single-shard version-manager State from the log
// (snapshot first, then the record suffix) and attaches the log so
// subsequent mutations are journaled. A fresh/empty log yields a fresh
// State, so this is the only constructor the durable deployment path
// needs.
//
// Replay is idempotent: records already reflected in the state (e.g.
// folded into the snapshot, or replayed twice) are skipped, so
// recovering from a log that was already recovered once produces the
// same state.
func Recover(log *wal.Log, repair Repairer) (*State, error) {
	return RecoverShard(log, repair, ShardInfo{})
}

// RecoverShard is Recover for one shard of a sharded deployment. Each
// shard journals only the blobs it owns into its own log, so shard
// recovery is fully independent of its siblings. The log must have
// been written under the same shard topology: replaying a record for a
// blob this shard does not own fails loudly instead of silently
// merging foreign state.
func RecoverShard(log *wal.Log, repair Repairer, si ShardInfo) (*State, error) {
	s := NewShardState(repair, si)
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
	return s, nil
}

func (s *State) shardMismatch(id blob.ID) error {
	return fmt.Errorf("vmanager: blob %d is not owned by shard %d/%d (log written under a different shard topology?)",
		id, s.shard.Index, s.shard.Count)
}

// applyRecord folds one WAL record into the state. Mutations here
// mirror the live mutators minus validation (the record was only
// written after validation passed) and minus side effects (no repair
// calls, no client acks — a version whose abort-repair never finished
// is still in `assigned`, so the janitor re-aborts it after recovery).
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
	switch t {
	case recCreate:
		blockSize := r.I64()
		replication := int(r.U32())
		if err := r.Err(); err != nil {
			return err
		}
		if _, ok := st.blobs[id]; ok {
			return nil // already applied
		}
		st.blobs[id] = &blobState{
			meta:     blob.Meta{ID: id, BlockSize: blockSize, Replication: replication},
			assigned: make(map[blob.Version]time.Time),
		}
		// Re-arm minting past every replayed ID, preserving this
		// shard's residue class (IDs advance with stride Count).
		s.idMu.Lock()
		if id >= s.nextID {
			s.nextID = id + blob.ID(s.shard.Count)
		}
		s.idMu.Unlock()
	case recAssign:
		d := decodeDesc(r)
		at := time.Unix(0, r.I64())
		if err := r.Err(); err != nil {
			return err
		}
		bs, ok := st.blobs[id]
		if !ok {
			return fmt.Errorf("vmanager: assign record for unknown blob %d", id)
		}
		if d.Version <= bs.hist.Latest() {
			return nil // already applied
		}
		if err := bs.hist.Append(d); err != nil {
			return err
		}
		bs.committed = append(bs.committed, false)
		bs.assigned[d.Version] = at
	case recCommit:
		v := blob.Version(r.U64())
		if err := r.Err(); err != nil {
			return err
		}
		bs, ok := st.blobs[id]
		if !ok {
			return fmt.Errorf("vmanager: commit record for unknown blob %d", id)
		}
		if v == blob.NoVersion || v > bs.hist.Latest() {
			return fmt.Errorf("vmanager: commit record for unassigned version %d of blob %d", v, id)
		}
		bs.committed[v-1] = true
		delete(bs.assigned, v)
		bs.advanceLocked()
	case recAbort:
		v := blob.Version(r.U64())
		if err := r.Err(); err != nil {
			return err
		}
		bs, ok := st.blobs[id]
		if !ok {
			return fmt.Errorf("vmanager: abort record for unknown blob %d", id)
		}
		if v == blob.NoVersion || v > bs.hist.Latest() {
			return fmt.Errorf("vmanager: abort record for unassigned version %d of blob %d", v, id)
		}
		bs.hist.MarkAborted(v)
	case recPrune:
		keep := blob.Version(r.U64())
		if err := r.Err(); err != nil {
			return err
		}
		bs, ok := st.blobs[id]
		if !ok {
			return fmt.Errorf("vmanager: prune record for unknown blob %d", id)
		}
		if keep > bs.prunedBelow {
			bs.prunedBelow = keep
		}
	default:
		return fmt.Errorf("vmanager: unknown WAL record type %d", t)
	}
	return nil
}

// appendStriped journals the record rec encodes if a log is attached;
// without one nothing is encoded. Callers hold
// the stripe lock of the blob the record is about, which serializes
// log order with mutation order *per blob* — the property replay
// depends on (records for different blobs are independent under
// replay, so their cross-stripe interleaving is free). The record is
// on disk before this returns, so no acknowledged mutation — an
// assigned version number included — is lost to a crash.
//
// On a log error the in-memory mutation has already happened; the
// caller surfaces the error so the client treats the operation as
// failed. The memory/disk divergence this leaves (an assigned version
// the disk never heard of) is the same shape as a lost in-flight
// writer, which the janitor already cleans up.
func (s *State) appendStriped(rec func() []byte) error {
	if s.log == nil {
		return nil
	}
	return s.log.AppendSync(rec())
}

// encodeSnapshotAllLocked serializes the full state. Callers hold
// every stripe lock and idMu. Layout: u64 nextID | u32 nblobs | per
// blob: id, blockSize, replication, descs, committed bools, published,
// prunedBelow, assigned (v, unixNano) pairs.
func (s *State) encodeSnapshotAllLocked() []byte {
	b := wire.NewBuffer(256)
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
		bs.hist.Descs = decodeDescs(r)
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

// ErrNoWAL is returned by snapshot/status operations on a manager
// running without a write-ahead log.
var ErrNoWAL = errors.New("vmanager: no write-ahead log attached")

// SnapshotNow serializes the current state as a WAL snapshot and
// compacts the log behind it. Every stripe lock (and the minting lock)
// is held across the snapshot write so the saved state is exactly
// consistent with the log prefix it supersedes; version-manager
// operations pause for the duration (an explicit admin/maintenance
// action, not a hot-path one).
func (s *State) SnapshotNow() error {
	if s.log == nil {
		return ErrNoWAL
	}
	s.idMu.Lock()
	defer s.idMu.Unlock()
	s.lockAll()
	defer s.unlockAll()
	return s.log.SaveSnapshot(s.encodeSnapshotAllLocked())
}

// WALStatus reports the attached log's shape (bsfsctl vm status).
func (s *State) WALStatus() (wal.Status, error) {
	if s.log == nil {
		return wal.Status{}, ErrNoWAL
	}
	return s.log.Status(), nil
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
