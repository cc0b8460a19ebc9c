package store

import (
	"errors"
	"sync"
)

// bufWriter is MemStore's frame-assembly engine: it buffers a streaming
// block before installing it in one shot. Frames land at arbitrary
// offsets; Commit hands the assembled buffer to the store's install,
// which takes ownership (no copy). Once Commit or Abort has returned,
// the writer goes back to its store's free list for the next PutWriter.
type bufWriter struct {
	mu   sync.Mutex
	buf  []byte
	done bool // committed or aborted: idle on its free list, or reused
	key  string
	to   *MemStore
}

// Presize implements Presizer: the buffer is allocated at the value's
// size once, where appending frame after frame would copy it as it grew.
func (w *bufWriter) Presize(n int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.done && n > int64(cap(w.buf)) {
		grown := make([]byte, len(w.buf), n)
		copy(grown, w.buf)
		w.buf = grown
	}
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
	if w.done {
		w.mu.Unlock()
		return errors.New("store: commit on finished writer")
	}
	key, buf := w.key, w.buf
	w.finishLocked()
	w.mu.Unlock()
	w.to.install(key, buf)
	w.to.writers.Put(w)
	return nil
}

func (w *bufWriter) Abort() error {
	w.mu.Lock()
	if w.done {
		w.mu.Unlock()
		return nil
	}
	w.finishLocked()
	w.mu.Unlock()
	w.to.writers.Put(w)
	return nil
}

// finishLocked spends the writer: it keeps neither its key nor its
// buffer, which install now owns or nothing does. Caller holds w.mu.
func (w *bufWriter) finishLocked() {
	w.done, w.key, w.buf = true, "", nil
}
