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
	sem := make(chan struct{}, window)
	var wg sync.WaitGroup
	var first atomic.Pointer[error]
	run := func(i int) {
		defer func() { <-sem; wg.Done() }()
		if err := fn(i); err != nil {
			first.CompareAndSwap(nil, &err)
		}
	}
	for i := 0; i < n && first.Load() == nil; i++ {
		sem <- struct{}{}
		wg.Add(1)
		if i == n-1 {
			run(i)
		} else {
			go run(i)
		}
	}
	wg.Wait()
	if err := first.Load(); err != nil {
		return *err
	}
	return nil
}
