package namespace

import (
	"errors"
	"fmt"

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

func (s *State) applyRecord(p []byte) error {
	r := wire.NewReader(p)
	t := r.U8()
	s.mu.Lock()
	defer s.mu.Unlock()
	switch t {
	case recNSCreate:
		path := r.String()
		id := blob.ID(r.U64())
		if err := r.Err(); err != nil {
			return err
		}
		dir, err := s.mkdirs(fs.Parent(path))
		if err != nil {
			return err
		}
		name := fs.Base(path)
		if old, ok := dir.children[name]; ok {
			if old.isDir {
				return fmt.Errorf("namespace: create record for %q over a directory", path)
			}
			if old.blobID == id {
				return nil // already applied
			}
			s.orphaned = append(s.orphaned, old.blobID) // overwrite
		}
		dir.children[name] = &entry{name: name, blobID: id}
	case recNSMkdirs:
		path := r.String()
		if err := r.Err(); err != nil {
			return err
		}
		if _, err := s.mkdirs(path); err != nil {
			return err
		}
	case recNSDelete:
		path := r.String()
		if err := r.Err(); err != nil {
			return err
		}
		e, parent, name := s.lookup(path)
		if e == nil || parent == nil {
			return nil // already applied
		}
		var collect func(*entry)
		collect = func(en *entry) {
			if !en.isDir {
				s.orphaned = append(s.orphaned, en.blobID)
				return
			}
			for _, ch := range en.children {
				collect(ch)
			}
		}
		collect(e)
		delete(parent.children, name)
	case recNSRename:
		src := r.String()
		dst := r.String()
		if err := r.Err(); err != nil {
			return err
		}
		e, parent, name := s.lookup(src)
		if e == nil || parent == nil {
			return nil // already applied (or applied then src re-created)
		}
		dstDir, err := s.mkdirs(fs.Parent(dst))
		if err != nil {
			return err
		}
		dstName := fs.Base(dst)
		if _, exists := dstDir.children[dstName]; exists {
			return nil // already applied
		}
		delete(parent.children, name)
		e.name = dstName
		dstDir.children[dstName] = e
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

// appendLocked journals one record if a log is attached; callers hold
// s.mu so log order matches mutation order. Namespace mutations are
// low-rate and all client-acknowledged, so every record is fsynced.
func (s *State) appendLocked(p []byte) error {
	if s.log == nil {
		return nil
	}
	return s.log.AppendSync(p)
}

func encodePath(t uint8, path string) []byte {
	b := wire.NewBuffer(16 + len(path))
	b.U8(t)
	b.String(path)
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

// CloseWAL closes the attached log (graceful shutdown). The log stays
// attached, so a mutation after it fails with the log's "closed" error
// instead of being acknowledged unjournaled.
func (s *State) CloseWAL() error {
	if s.log == nil {
		return nil
	}
	return s.log.Close()
}
