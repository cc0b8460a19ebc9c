package store

import (
	"errors"
	"sync"
)

// bufWriter is the shared frame-assembly engine behind the backends
// that buffer a streaming block before installing it in one shot (mem,
// tiered). Frames land at arbitrary offsets; Commit hands the assembled
// buffer to the backend's install, which takes ownership (no copy).
type bufWriter struct {
	mu   sync.Mutex
	buf  []byte
	done bool
	key  string
	to   installer
}

// installer is a backend that takes an assembled value as its own.
type installer interface {
	install(key string, buf []byte) error
}

func newBufWriter(to installer, key string) *bufWriter {
	return &bufWriter{key: key, to: to}
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
	if int(off) == len(w.buf) {
		// The in-order case: append grows geometrically and clears
		// nothing it is about to overwrite.
		w.buf = append(w.buf, p...)
		return nil
	}
	if n, end := len(w.buf), int(off)+len(p); end > n {
		// A frame landing past the end leaves a gap that reads as zeros
		// until its own frame arrives.
		if end > cap(w.buf) {
			grown := make([]byte, end, max(end, 2*cap(w.buf)))
			copy(grown, w.buf)
			w.buf = grown
		} else {
			w.buf = w.buf[:end]
			clear(w.buf[n:max(n, int(off))]) // the gap, if the frame leaves one
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
	return w.to.install(w.key, buf)
}

func (w *bufWriter) Abort() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.done = true
	w.buf = nil
	return nil
}
