package namespace

import (
	"errors"
	"fmt"
	"slices"

	"blobseer/internal/blob"
	"blobseer/internal/fs"
	"blobseer/internal/wal"
	"blobseer/internal/wire"
)

// WAL record types for namespace mutations. Each record carries the
// mutation's *outcome* — critically, the blob ID the creator returned
// for a CreateFile — so replay rebuilds the tree without re-invoking
// the version manager (which would mint fresh blobs and orphan every
// file's data).
const (
	recNSCreate uint8 = iota + 1
	recNSMkdirs
	recNSDelete
	recNSRename
	recNSDrain
	recNSOrphan
)

// Recover rebuilds a namespace State from the log and attaches it, so
// subsequent mutations are journaled and the log compacts itself. An
// empty log yields an empty namespace. Replay is idempotent —
// re-applying a record that is already reflected in the tree is a no-op
// — so recovering twice from the same log converges on the same tree.
func Recover(log *wal.Log, creator BlobCreator) (*State, error) {
	s := NewState(creator)
	err := log.Replay(func(p []byte, isSnap bool) error {
		if isSnap {
			return s.loadSnapshot(p)
		}
		return s.applyRecord(p)
	})
	if err != nil {
		return nil, fmt.Errorf("namespace: recover: %w", err)
	}
	s.log = log
	log.Compact(s.snapshot)
	return s, nil
}

// applyRecord decodes one WAL record and applies it through the apply
// function the live mutator calls after journaling it, unless the tree
// already reflects it (a record folded into the snapshot, or replayed
// twice).
func (s *State) applyRecord(p []byte) error {
	r := wire.NewReader(p)
	t := r.U8()
	s.mu.Lock()
	defer s.mu.Unlock()
	switch t {
	case recNSCreate, recNSOrphan:
		path := r.String()
		id := blob.ID(r.U64())
		switch e, _, _ := s.lookup(path); {
		case r.Err() != nil:
			return r.Err()
		case t == recNSOrphan && !slices.Contains(s.orphaned, id):
			s.orphaned = append(s.orphaned, id)
		case t == recNSCreate && (e == nil || e.isDir || e.blobID != id):
			return s.applyCreate(path, id)
		} // else already applied
	case recNSMkdirs:
		path := r.String()
		if err := r.Err(); err != nil {
			return err
		}
		_, err := s.mkdirs(path)
		return err
	case recNSDelete:
		path := r.String()
		if err := r.Err(); err != nil {
			return err
		}
		if e, parent, _ := s.lookup(path); e == nil || parent == nil {
			return nil // already applied
		}
		s.applyDelete(path)
	case recNSRename:
		src := r.String()
		dst := r.String()
		if err := r.Err(); err != nil {
			return err
		}
		switch err := s.checkRename(src, dst); {
		case errors.Is(err, fs.ErrNotFound), errors.Is(err, fs.ErrExists):
			return nil // already applied (or applied, then src re-created)
		case err != nil:
			return err
		}
		return s.applyRename(src, dst)
	case recNSDrain:
		// The GC consumed the orphan list at this point in history;
		// dropping it on replay stops recovery from re-offering blobs
		// that were already collected.
		s.orphaned = nil
	default:
		return fmt.Errorf("namespace: unknown WAL record type %d", t)
	}
	return nil
}

// appendLocked journals the record rec encodes if a log is attached;
// without one nothing is encoded. It is the middle step of every
// mutation: the caller validates without changing the tree, and applies
// the record, through the apply replay calls, only once this returned
// nil, so a refused record changes nothing. Callers hold s.mu so log
// order matches mutation order. Every record is fsynced.
func (s *State) appendLocked(rec func() []byte) error {
	if s.log == nil {
		return nil
	}
	return s.log.AppendSync(rec())
}

// encodeFile -> t | path | blob ID: a create of path, or the blob of a
// create of path refused after it was minted (recNSOrphan).
func encodeFile(t uint8, path string, id blob.ID) []byte {
	b := wire.NewBuffer(16 + len(path))
	b.U8(t)
	b.String(path)
	b.U64(uint64(id))
	return b.Bytes()
}

// encodePaths -> t | paths...
func encodePaths(t uint8, paths ...string) []byte {
	b := wire.NewBuffer(64)
	b.U8(t)
	for _, p := range paths {
		b.String(p)
	}
	return b.Bytes()
}

// encodeSnapshotLocked serializes the tree (pre-order) and the orphan
// list. Callers hold s.mu.
func (s *State) encodeSnapshotLocked() []byte {
	b := wire.NewBuffer(256)
	var walk func(e *entry)
	walk = func(e *entry) {
		b.String(e.name)
		b.Bool(e.isDir)
		b.U64(uint64(e.blobID))
		if e.isDir {
			b.U32(uint32(len(e.children)))
			for _, ch := range e.children {
				walk(ch)
			}
		}
	}
	walk(s.root)
	b.U32(uint32(len(s.orphaned)))
	for _, id := range s.orphaned {
		b.U64(uint64(id))
	}
	return b.Bytes()
}

func (s *State) loadSnapshot(p []byte) error {
	r := wire.NewReader(p)
	var walk func() (*entry, error)
	walk = func() (*entry, error) {
		e := &entry{name: r.String(), isDir: r.Bool(), blobID: blob.ID(r.U64())}
		if e.isDir {
			n := r.U32()
			if r.Err() != nil || n > uint32(r.Remaining()) {
				return nil, errors.New("namespace: corrupt snapshot")
			}
			e.children = make(map[string]*entry, n)
			for i := uint32(0); i < n; i++ {
				ch, err := walk()
				if err != nil {
					return nil, err
				}
				e.children[ch.name] = ch
			}
		}
		return e, nil
	}
	root, err := walk()
	if err != nil {
		return err
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("namespace: corrupt snapshot: %w", err)
	}
	n := r.U32()
	if r.Err() != nil || n > uint32(r.Remaining()) {
		return errors.New("namespace: corrupt snapshot (orphan run)")
	}
	orphans := make([]blob.ID, 0, n)
	for i := uint32(0); i < n; i++ {
		orphans = append(orphans, blob.ID(r.U64()))
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("namespace: corrupt snapshot: %w", err)
	}
	s.mu.Lock()
	s.root = root
	s.orphaned = orphans
	s.mu.Unlock()
	return nil
}

// snapshot is the log's compaction (wal.Log.Compact): it saves the tree
// as a snapshot and compacts the log behind it. The lock is held across
// the write so the snapshot is exactly the log prefix it supersedes.
func (s *State) snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.SaveSnapshot(s.encodeSnapshotLocked())
}
