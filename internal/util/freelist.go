package util

import "sync"

// FreeList is a bounded stack of values to reuse, under the discipline
// of wire's free lists: what a warm process allocates depends neither on
// when collections run nor on how many values were ever in use at once.
// The zero value is empty and ready to use.
type FreeList[T any] struct {
	mu   sync.Mutex
	idle []T
}

// freeListMax bounds the values a FreeList keeps.
const freeListMax = 64

// Get pops the value released last; ok is false when none is idle.
func (l *FreeList[T]) Get() (v T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.idle)
	if n == 0 {
		return v, false
	}
	v, ok = l.idle[n-1], true
	var zero T
	l.idle[n-1], l.idle = zero, l.idle[:n-1]
	return v, ok
}

// Put keeps v for a later Get, unless the list is full.
func (l *FreeList[T]) Put(v T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.idle) < freeListMax {
		l.idle = append(l.idle, v)
	}
}
