// Package namespace implements the BSFS namespace manager (Section
// IV-A): a centralized service mapping a classical hierarchical
// directory structure onto BlobSeer's flat BLOB space. It is involved
// only in file open/create/delete/rename — actual data access goes
// straight to BlobSeer, preserving the decentralized metadata benefits.
//
// With a log attached (Recover), every mutation runs in three steps:
// validate without changing the tree, journal its record, then apply
// the record through the one apply function replay also calls
// (applyCreate, mkdirs, applyDelete, applyRename). A refused record —
// invalid, or one the log failed to write — changes nothing. A log that
// failed refuses every later record, and the namespace stops there (its
// node's fail-stop, internal/node).
package namespace

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"blobseer/internal/blob"
	"blobseer/internal/fs"
	"blobseer/internal/vmanager"
	"blobseer/internal/wal"
)

// RPC method numbers.
const (
	mCreateFile uint16 = iota + 1
	mGetFile
	mMkdirs
	mDelete
	mRename
	mList
	mStatEntry
)

type entry struct {
	name     string
	isDir    bool
	blobID   blob.ID
	children map[string]*entry
}

// BlobCreator allocates the BLOB backing a new file. Production wiring
// uses the version manager; tests may stub it.
type BlobCreator func(ctx context.Context, blockSize int64, replication int) (blob.ID, error)

// VMBlobCreator builds a BlobCreator over a version-manager client
// (over several shards, new files spread across the control plane).
func VMBlobCreator(vm *vmanager.Client) BlobCreator {
	return func(ctx context.Context, blockSize int64, replication int) (blob.ID, error) {
		m, err := vm.CreateBlob(ctx, blockSize, replication)
		if err != nil {
			return 0, err
		}
		return m.ID, nil
	}
}

// State is the namespace tree. Safe for concurrent use.
type State struct {
	mu       sync.RWMutex
	root     *entry
	creator  BlobCreator
	orphaned []blob.ID // blobs unlinked by delete/overwrite (GC candidates)
	// log, when non-nil, journals every mutation for crash recovery
	// (see recovery.go). Recover sets it before the State is shared and
	// nothing changes it afterwards; nil keeps the historical
	// purely-in-memory behavior.
	log *wal.Log
}

// NewState returns an empty namespace whose new files get blobs from
// creator.
func NewState(creator BlobCreator) *State {
	return &State{
		root:    &entry{name: "", isDir: true, children: map[string]*entry{}},
		creator: creator,
	}
}

// lookup walks to the entry at path. Returns (entry, parent, name); a
// missing entry comes back nil with the last directory on its way as
// parent, and a file on the way makes both nil.
func (s *State) lookup(path string) (*entry, *entry, string) {
	cur := s.root
	var parent *entry
	name := ""
	for rest := path; rest != ""; {
		var p string
		if p, rest, _ = strings.Cut(rest, "/"); p == "" || p == "." {
			continue // as fs.Split, without building a slice
		}
		if !cur.isDir {
			return nil, nil, ""
		}
		next, ok := cur.children[p]
		if !ok {
			return nil, cur, p
		}
		parent, name, cur = cur, p, next
	}
	return cur, parent, name
}

// mkdirs creates missing directories along path, returning the final
// directory entry. It is the apply of a mkdirs record.
func (s *State) mkdirs(path string) (*entry, error) {
	cur := s.root
	for rest := path; rest != ""; {
		var p string
		if p, rest, _ = strings.Cut(rest, "/"); p == "" || p == "." {
			continue
		}
		if !cur.isDir {
			return nil, fs.ErrNotDir
		}
		next, ok := cur.children[p]
		if !ok {
			next = &entry{name: p, isDir: true, children: map[string]*entry{}}
			cur.children[p] = next
		}
		cur = next
	}
	if !cur.isDir {
		return nil, fs.ErrNotDir
	}
	return cur, nil
}

// CreateFile maps a new file to a fresh BLOB, creating parent
// directories implicitly. With overwrite, an existing file is remapped
// to a new BLOB (the old one is orphaned for GC).
func (s *State) CreateFile(ctx context.Context, path string, blockSize int64, replication int, overwrite bool) (blob.ID, error) {
	path = fs.Clean(path)
	if path == "/" {
		return 0, fs.ErrIsDir
	}
	s.mu.RLock()
	err := s.checkCreate(path, overwrite)
	s.mu.RUnlock()
	if err != nil {
		return 0, err
	}
	// Allocate the blob between the two checks, with no lock held (an
	// RPC under the mutex would serialize unrelated namespace traffic).
	// A create the path changed under in between is refused by the
	// second check, and its blob is journaled onto the orphan list.
	id, err := s.creator(ctx, blockSize, replication)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkCreate(path, overwrite); err != nil {
		if jerr := s.appendLocked(func() []byte { return encodeFile(recNSOrphan, path, id) }); jerr != nil {
			return 0, jerr
		}
		s.orphaned = append(s.orphaned, id)
		return 0, err
	}
	// The record carries the allocated blob ID: replay must re-link
	// the same blob, never re-invoke the creator.
	if err := s.appendLocked(func() []byte { return encodeFile(recNSCreate, path, id) }); err != nil {
		return 0, err
	}
	return id, s.applyCreate(path, id)
}

// checkCreate refuses a create of path that applyCreate could not
// apply, or that would replace a file without overwrite. Callers hold
// the lock.
func (s *State) checkCreate(path string, overwrite bool) error {
	switch old, parent, _ := s.lookup(path); {
	case old == nil && parent == nil:
		return fs.ErrNotDir
	case old != nil && old.isDir:
		return fs.ErrIsDir
	case old != nil && !overwrite:
		return fs.ErrExists
	}
	return nil
}

// applyCreate links path to blob id, creating its parent directories
// and orphaning the blob of a file it overwrites.
func (s *State) applyCreate(path string, id blob.ID) error {
	dir, err := s.mkdirs(fs.Parent(path))
	if err != nil {
		return err
	}
	name := fs.Base(path)
	if old, ok := dir.children[name]; ok {
		if old.isDir {
			return fmt.Errorf("namespace: create of %q over a directory", path)
		}
		s.orphaned = append(s.orphaned, old.blobID)
	}
	dir.children[name] = &entry{name: name, blobID: id}
	return nil
}

// GetFile resolves a file path to its BLOB.
func (s *State) GetFile(path string) (blob.ID, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, _, _ := s.lookup(path) // lookup skips what fs.Clean drops, and allocates nothing
	if e == nil {
		return 0, fs.ErrNotFound
	}
	if e.isDir {
		return 0, fs.ErrIsDir
	}
	return e.blobID, nil
}

// Mkdirs creates a directory chain.
func (s *State) Mkdirs(path string) error {
	path = fs.Clean(path)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, parent, _ := s.lookup(path); e == nil && parent == nil || e != nil && !e.isDir {
		return fs.ErrNotDir
	}
	if err := s.appendLocked(func() []byte { return encodePaths(recNSMkdirs, path) }); err != nil {
		return err
	}
	_, err := s.mkdirs(path)
	return err
}

// Delete unlinks a file or directory. Non-empty directories require
// recursive. It returns the blob IDs orphaned by the deletion.
func (s *State) Delete(path string, recursive bool) ([]blob.ID, error) {
	path = fs.Clean(path)
	if path == "/" {
		return nil, fs.ErrIsDir
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, parent, _ := s.lookup(path)
	if e == nil || parent == nil {
		return nil, fs.ErrNotFound
	}
	if e.isDir && len(e.children) > 0 && !recursive {
		return nil, fs.ErrNotEmpty
	}
	if err := s.appendLocked(func() []byte { return encodePaths(recNSDelete, path) }); err != nil {
		return nil, err
	}
	return s.applyDelete(path), nil
}

// applyDelete unlinks the entry at path, which exists, and returns the
// blobs of the files it held, which join the orphan list.
func (s *State) applyDelete(path string) []blob.ID {
	e, parent, name := s.lookup(path)
	delete(parent.children, name)
	orphans := e.files(nil)
	s.orphaned = append(s.orphaned, orphans...)
	return orphans
}

// files appends the blobs of the files at and under e to out.
func (e *entry) files(out []blob.ID) []blob.ID {
	if !e.isDir {
		return append(out, e.blobID)
	}
	for _, ch := range e.children {
		out = ch.files(out)
	}
	return out
}

// Rename moves a file or directory to dst (whose parent must resolve).
func (s *State) Rename(src, dst string) error {
	src, dst = fs.Clean(src), fs.Clean(dst)
	if src == "/" || dst == "/" {
		return fs.ErrIsDir
	}
	if dst == src || strings.HasPrefix(dst, src+"/") {
		return errors.New("namespace: cannot rename a path into itself")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkRename(src, dst); err != nil {
		return err
	}
	if err := s.appendLocked(func() []byte { return encodePaths(recNSRename, src, dst) }); err != nil {
		return err
	}
	return s.applyRename(src, dst)
}

// checkRename reports why src cannot move to dst: fs.ErrNotFound
// without src, fs.ErrNotDir with a file on dst's parent chain,
// fs.ErrExists when dst exists.
func (s *State) checkRename(src, dst string) error {
	if e, parent, _ := s.lookup(src); e == nil || parent == nil {
		return fs.ErrNotFound
	}
	switch e, parent, _ := s.lookup(dst); {
	case e != nil:
		return fs.ErrExists
	case parent == nil:
		return fs.ErrNotDir
	}
	return nil
}

// applyRename relinks the entry at src, which exists, as dst, whose
// parent chain it creates.
func (s *State) applyRename(src, dst string) error {
	dstDir, err := s.mkdirs(fs.Parent(dst))
	if err != nil {
		return err
	}
	e, parent, name := s.lookup(src)
	delete(parent.children, name)
	e.name = fs.Base(dst)
	dstDir.children[e.name] = e
	return nil
}

// Entry is one listing row.
type Entry struct {
	Name  string
	IsDir bool
	Blob  blob.ID
}

// List enumerates a directory in name order.
func (s *State) List(path string) ([]Entry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, _, _ := s.lookup(fs.Clean(path))
	if e == nil {
		return nil, fs.ErrNotFound
	}
	if !e.isDir {
		return nil, fs.ErrNotDir
	}
	out := make([]Entry, 0, len(e.children))
	for _, ch := range e.children {
		out = append(out, Entry{Name: ch.name, IsDir: ch.isDir, Blob: ch.blobID})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// StatEntry reports whether path exists and what it is.
func (s *State) StatEntry(path string) (Entry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, _, _ := s.lookup(fs.Clean(path))
	if e == nil {
		return Entry{}, fs.ErrNotFound
	}
	return Entry{Name: e.name, IsDir: e.isDir, Blob: e.blobID}, nil
}

// Orphaned drains the accumulated orphan list (GC integration point).
// The drain is journaled so a recovered namespace does not re-offer
// blobs the GC already collected.
func (s *State) Orphaned() []blob.ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.orphaned
	if len(out) == 0 {
		return nil
	}
	if err := s.appendLocked(func() []byte { return encodePaths(recNSDrain) }); err != nil {
		// Keep the list: better to re-offer orphans after a crash
		// (GC of a missing blob is a no-op) than to leak them.
		return nil
	}
	s.orphaned = nil
	return out
}
