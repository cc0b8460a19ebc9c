package util

import (
	"sync"
	"sync/atomic"
)

// Windowed runs fn(0) … fn(n-1), at most window of them at a time, and
// returns the first error once all that started have returned; after a
// failure no further one starts. The last one runs on the calling
// goroutine, so n = 1 starts no goroutine at all.
func Windowed(n, window int, fn func(i int) error) error {
	return new(Window).Run(n, window, fn)
}

// Window is Windowed's state, for a caller that runs one batch after
// another: a Window kept in a recycled record runs a batch without
// allocating, beyond the closure of each goroutine it starts. The zero
// value is ready to use; a Window runs one batch at a time.
type Window struct {
	sem    chan struct{}
	fn     func(i int) error
	wg     sync.WaitGroup
	failed atomic.Bool
	mu     sync.Mutex
	err    error // the first failure
}

// Run is Windowed on w's state. Once it returns, no goroutine it started
// touches w, and fn is no longer referenced.
func (w *Window) Run(n, window int, fn func(i int) error) error {
	if cap(w.sem) != window {
		w.sem = make(chan struct{}, window)
	}
	w.fn = fn
	for i := 0; i < n && !w.failed.Load(); i++ {
		w.sem <- struct{}{}
		w.wg.Add(1)
		if i == n-1 {
			w.run(i)
		} else {
			go w.run(i)
		}
	}
	w.wg.Wait()
	err := w.err
	w.fn, w.err = nil, nil
	w.failed.Store(false)
	return err
}

func (w *Window) run(i int) {
	defer func() { <-w.sem; w.wg.Done() }()
	if err := w.fn(i); err != nil {
		w.mu.Lock()
		if w.err == nil {
			w.err = err
			w.failed.Store(true)
		}
		w.mu.Unlock()
	}
}
