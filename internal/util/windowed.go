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
	var (
		wg     sync.WaitGroup
		failed atomic.Bool
		once   sync.Once
		err    error // the first failure
	)
	run := func(i int) {
		defer func() { <-sem; wg.Done() }()
		if e := fn(i); e != nil {
			once.Do(func() { err = e; failed.Store(true) })
		}
	}
	for i := 0; i < n && !failed.Load(); i++ {
		sem <- struct{}{}
		wg.Add(1)
		if i == n-1 {
			run(i)
		} else {
			go run(i)
		}
	}
	wg.Wait()
	return err
}
