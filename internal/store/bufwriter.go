package store

import (
	"errors"
	"sync"
)

// bufWriter is the shared frame-assembly engine behind the backends
// that buffer a streaming block before installing it in one shot (mem,
// http, tiered write-back). Frames land at arbitrary offsets; Commit
// hands the assembled buffer to the backend's commit callback, which
// takes ownership (no copy).
type bufWriter struct {
	mu     sync.Mutex
	buf    []byte
	done   bool
	commit func(buf []byte) error
}

func newBufWriter(commit func(buf []byte) error) *bufWriter {
	return &bufWriter{commit: commit}
}

func (w *bufWriter) WriteAt(p []byte, off int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return errors.New("store: write on finished writer")
	}
	if off < 0 {
		return errors.New("store: negative write offset")
	}
	if end := int(off) + len(p); end > len(w.buf) {
		if end > cap(w.buf) {
			// Grow geometrically: frames mostly arrive in ascending
			// order, so linear growth would copy the buffer once per
			// frame — quadratic in the block size.
			newCap := 2 * cap(w.buf)
			if newCap < end {
				newCap = end
			}
			grown := make([]byte, end, newCap)
			copy(grown, w.buf)
			w.buf = grown
		} else {
			w.buf = w.buf[:end]
		}
	}
	copy(w.buf[off:], p)
	return nil
}

func (w *bufWriter) Commit() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return errors.New("store: commit on finished writer")
	}
	w.done = true
	buf := w.buf
	w.buf = nil
	return w.commit(buf)
}

func (w *bufWriter) Abort() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.done = true
	w.buf = nil
	return nil
}
