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
	w := &windowed{sem: make(chan struct{}, window), fn: fn}
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
	return w.err
}

// windowed is one Windowed call's state, one allocation for all of it
// (the read path runs a Windowed per multi-provider read).
type windowed struct {
	sem    chan struct{}
	fn     func(i int) error
	wg     sync.WaitGroup
	failed atomic.Bool
	mu     sync.Mutex
	err    error // the first failure
}

func (w *windowed) run(i int) {
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
