package store

import (
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// FSStore is a file-backed Store: each key becomes one file whose name
// is the hex encoding of the key (safe for arbitrary key bytes). It is
// the durable engine for real deployments of providers and metadata
// providers; experiments default to MemStore.
type FSStore struct {
	dir  string
	base string // dir and a separator: what a key's file name is appended to
	sync bool   // fsync after writes

	mu  sync.RWMutex  // guards cross-file operations (DeletePrefix vs Put races)
	seq atomic.Uint64 // distinguishes concurrent streaming writers' temp files
}

// NewFSStore opens (creating if needed) a store rooted at dir. If
// syncWrites is set, every Put is fsynced before returning. Temp files
// orphaned by a crash mid-write are swept on open (no writer can be
// live at that point).
func NewFSStore(dir string, syncWrites bool) (*FSStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fsstore: %w", err)
	}
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".tmp") {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	base := filepath.Clean(dir)
	if !os.IsPathSeparator(base[len(base)-1]) {
		base += string(filepath.Separator)
	}
	return &FSStore{dir: dir, base: base, sync: syncWrites}, nil
}

// path names key's file: the directory and the key's hex encoding, built
// as the one string the file system call is given (which copies it
// once more, to end it with a NUL). A key as bytes names the file its
// string names.
func path[K keyBytes](s *FSStore, key K) string {
	const digits = "0123456789abcdef"
	var room [256]byte // on the stack unless the directory is long
	b := append(room[:0], s.base...)
	for i := 0; i < len(key); i++ {
		b = append(b, digits[key[i]>>4], digits[key[i]&0xf])
	}
	return string(b)
}

// Put implements Store.
func (s *FSStore) Put(key string, val []byte) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	tmp := path(s, key) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("fsstore: put %s: %w", key, err)
	}
	if _, err := f.Write(val); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("fsstore: put %s: %w", key, err)
	}
	if s.sync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("fsstore: sync %s: %w", key, err)
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("fsstore: close %s: %w", key, err)
	}
	if err := os.Rename(tmp, path(s, key)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("fsstore: commit %s: %w", key, err)
	}
	if s.sync {
		// The rename is only durable once the directory entry is: fsync
		// the parent, or a power loss can roll back a committed block
		// even though its bytes were synced.
		if err := s.syncDir(); err != nil {
			return fmt.Errorf("fsstore: commit %s: %w", key, err)
		}
	}
	return nil
}

// syncDir fsyncs the store directory, making recent renames durable.
func (s *FSStore) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// PutWriter implements Store. Frames accumulate in a uniquely named
// temp file (the ".tmp" suffix keeps it invisible to DeletePrefix and
// Stats); Commit renames it into place atomically.
func (s *FSStore) PutWriter(key string) (BlockWriter, error) {
	tmp := fmt.Sprintf("%s.w%d.tmp", path(s, key), s.seq.Add(1))
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fsstore: stream %s: %w", key, err)
	}
	return &fsWriter{s: s, key: key, tmp: tmp, f: f}, nil
}

type fsWriter struct {
	s    *FSStore
	key  string
	tmp  string
	mu   sync.Mutex
	f    *os.File
	done bool
}

func (w *fsWriter) WriteAt(p []byte, off int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return errors.New("fsstore: write on finished writer")
	}
	if off < 0 {
		return errors.New("fsstore: negative write offset")
	}
	if _, err := w.f.WriteAt(p, off); err != nil {
		return fmt.Errorf("fsstore: stream %s: %w", w.key, err)
	}
	return nil
}

func (w *fsWriter) Commit() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return errors.New("fsstore: commit on finished writer")
	}
	w.done = true
	if w.s.sync {
		if err := w.f.Sync(); err != nil {
			w.f.Close()
			os.Remove(w.tmp)
			return fmt.Errorf("fsstore: sync %s: %w", w.key, err)
		}
	}
	if err := w.f.Close(); err != nil {
		os.Remove(w.tmp)
		return fmt.Errorf("fsstore: close %s: %w", w.key, err)
	}
	w.s.mu.RLock()
	defer w.s.mu.RUnlock()
	if err := os.Rename(w.tmp, path(w.s, w.key)); err != nil {
		os.Remove(w.tmp)
		return fmt.Errorf("fsstore: commit %s: %w", w.key, err)
	}
	if w.s.sync {
		if err := w.s.syncDir(); err != nil {
			return fmt.Errorf("fsstore: commit %s: %w", w.key, err)
		}
	}
	return nil
}

func (w *fsWriter) Abort() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return nil
	}
	w.done = true
	w.f.Close()
	return os.Remove(w.tmp)
}

// Get implements Store.
func (s *FSStore) Get(key string) ([]byte, error) { return s.GetRange(key, 0, -1) }

// GetRange implements Store.
func (s *FSStore) GetRange(key string, off, length int64) ([]byte, error) {
	return s.readRange([]byte(key), off, length, func(n int64) []byte { return make([]byte, n) })
}

// ReadAt implements Store.
func (s *FSStore) ReadAt(key, p []byte, off int64) (int, error) {
	got, err := s.readRange(key, off, int64(len(p)), func(n int64) []byte { return p[:n] })
	return len(got), err
}

// readRange reads [off, off+length) of key's file, clamped to the file,
// into the slice dst supplies for the clamped length.
func (s *FSStore) readRange(key []byte, off, length int64, dst func(n int64) []byte) ([]byte, error) {
	f, l, err := s.LendFile(key, off, length)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := dst(l)
	if l == 0 {
		return buf, nil
	}
	if _, err := f.ReadAt(buf, max(off, 0)); err != nil {
		return nil, fmt.Errorf("fsstore: read %s: %w", key, err)
	}
	return buf, nil
}

// LendFile implements FileLender.
func (s *FSStore) LendFile(key []byte, off, length int64) (*os.File, int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, err := os.Open(path(s, key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, 0, ErrNotFound
	}
	if err != nil {
		return nil, 0, err
	}
	size, err := f.Seek(0, io.SeekEnd) // a Stat would allocate its FileInfo; reads and sendfile pass offsets
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	_, l := clampRange(size, off, length)
	return f, l, nil
}

// Delete implements Store.
func (s *FSStore) Delete(key string) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	err := os.Remove(path(s, key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

// DeletePrefix implements Store.
func (s *FSStore) DeletePrefix(prefix string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, err
	}
	hexPrefix := hex.EncodeToString([]byte(prefix))
	n := 0
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") || !strings.HasPrefix(name, hexPrefix) {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, name)); err == nil {
			n++
		}
	}
	return n, nil
}

// Keys implements Store.
func (s *FSStore) Keys(prefix string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	hexPrefix := hex.EncodeToString([]byte(prefix))
	var out []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") || !strings.HasPrefix(name, hexPrefix) {
			continue
		}
		raw, err := hex.DecodeString(name)
		if err != nil {
			continue // foreign file in the store directory
		}
		out = append(out, string(raw))
	}
	return out, nil
}

// Stats implements Store.
func (s *FSStore) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var st Stats
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return st
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		st.Items++
		st.Bytes += fi.Size()
	}
	return st
}

// Close implements Store.
func (s *FSStore) Close() error { return nil }
