// Package namespace implements the BSFS namespace manager (Section
// IV-A): a centralized service mapping a classical hierarchical
// directory structure onto BlobSeer's flat BLOB space. It is involved
// only in file open/create/delete/rename — actual data access goes
// straight to BlobSeer, preserving the decentralized metadata benefits.
package namespace

import (
	"context"
	"errors"
	"sort"
	"strings"
	"sync"

	"blobseer/internal/blob"
	"blobseer/internal/fs"
	"blobseer/internal/vmanager"
	"blobseer/internal/wal"
	"blobseer/internal/wire"
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

// lookup walks to the entry at path. Returns (entry, parent, name).
func (s *State) lookup(path string) (*entry, *entry, string) {
	parts := fs.Split(path)
	cur := s.root
	var parent *entry
	name := ""
	for _, p := range parts {
		if !cur.isDir {
			return nil, nil, ""
		}
		next, ok := cur.children[p]
		if !ok {
			return nil, cur, p
		}
		parent = cur
		name = p
		cur = next
	}
	if len(parts) == 0 {
		return cur, nil, ""
	}
	return cur, parent, name
}

// mkdirs creates missing directories along path, returning the final
// directory entry.
func (s *State) mkdirs(path string) (*entry, error) {
	cur := s.root
	for _, p := range fs.Split(path) {
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
	// Allocate the blob before taking the lock (RPC under a mutex
	// would serialize unrelated namespace traffic).
	id, err := s.creator(ctx, blockSize, replication)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	dir, err := s.mkdirs(fs.Parent(path))
	if err != nil {
		return 0, err
	}
	name := fs.Base(path)
	if old, ok := dir.children[name]; ok {
		if old.isDir {
			return 0, fs.ErrIsDir
		}
		if !overwrite {
			return 0, fs.ErrExists
		}
		s.orphaned = append(s.orphaned, old.blobID)
	}
	dir.children[name] = &entry{name: name, blobID: id}
	// The record carries the allocated blob ID: replay must re-link
	// the same blob, never re-invoke the creator.
	b := wire.NewBuffer(16 + len(path))
	b.U8(recNSCreate)
	b.String(path)
	b.U64(uint64(id))
	if err := s.appendLocked(b.Bytes()); err != nil {
		return 0, err
	}
	return id, nil
}

// GetFile resolves a file path to its BLOB.
func (s *State) GetFile(path string) (blob.ID, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, _, _ := s.lookup(fs.Clean(path))
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
	if _, err := s.mkdirs(path); err != nil {
		return err
	}
	return s.appendLocked(encodePath(recNSMkdirs, path))
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
	e, parent, name := s.lookup(path)
	if e == nil || parent == nil {
		return nil, fs.ErrNotFound
	}
	if e.isDir && len(e.children) > 0 && !recursive {
		return nil, fs.ErrNotEmpty
	}
	var orphans []blob.ID
	var collect func(*entry)
	collect = func(en *entry) {
		if !en.isDir {
			orphans = append(orphans, en.blobID)
			return
		}
		for _, ch := range en.children {
			collect(ch)
		}
	}
	collect(e)
	delete(parent.children, name)
	s.orphaned = append(s.orphaned, orphans...)
	if err := s.appendLocked(encodePath(recNSDelete, path)); err != nil {
		return nil, err
	}
	return orphans, nil
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
	e, parent, name := s.lookup(src)
	if e == nil || parent == nil {
		return fs.ErrNotFound
	}
	dstDir, err := s.mkdirs(fs.Parent(dst))
	if err != nil {
		return err
	}
	dstName := fs.Base(dst)
	if _, exists := dstDir.children[dstName]; exists {
		return fs.ErrExists
	}
	delete(parent.children, name)
	e.name = dstName
	dstDir.children[dstName] = e
	b := wire.NewBuffer(24 + len(src) + len(dst))
	b.U8(recNSRename)
	b.String(src)
	b.String(dst)
	return s.appendLocked(b.Bytes())
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
	if err := s.appendLocked([]byte{recNSDrain}); err != nil {
		// Keep the list: better to re-offer orphans after a crash
		// (GC of a missing blob is a no-op) than to leak them.
		return nil
	}
	s.orphaned = nil
	return out
}
