package wire

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Recycled byte slices for the data path: frames, block buffers,
// anything payload-sized and short-lived. Each size class is a bounded
// free list filled in one go on first use, so what a running process
// allocates per operation depends neither on when collections run nor
// on how many buffers were ever in flight at once; it is a stack, so
// the slice released last, still warm in cache, is reused first and
// the rest of the class is never touched. A class holds a power-of-two
// payload plus bufSlack bytes of headers, so a frame-sized chunk and
// its headers do not spill into the next class.
const (
	bufSlack    = 512
	minBufShift = 10       // smallest class: 1 KB + slack
	maxBufShift = 20       // largest class: 1 MB + slack
	classRetain = 32 << 20 // bytes a class keeps ...
	classIdle   = 128      // ... in at most this many slices
)

var freeBufs [maxBufShift - minBufShift + 1]struct {
	mu   sync.Mutex
	idle [][]byte // nil until the class is first used

	hits, misses atomic.Int64 // GetBuf served from idle / by make because idle was empty
}

// ClassStats is one size class of the free lists as PoolStats saw it.
type ClassStats struct {
	Size         int   // payload bytes the class is cut for (slices carry bufSlack more)
	Hits, Misses int64 // GetBuf calls recycled, and allocated because the class was empty
	ParkedBytes  int64 // capacity idle in the class right now
}

// PoolStats reports every size class, smallest first: a class whose
// misses grow has more buffers in flight than it retains.
func PoolStats() []ClassStats {
	out := make([]ClassStats, len(freeBufs))
	for c := range freeBufs {
		l := &freeBufs[c]
		l.mu.Lock()
		parked := len(l.idle) * classSize(c)
		l.mu.Unlock()
		out[c] = ClassStats{Size: classSize(c) - bufSlack, Hits: l.hits.Load(), Misses: l.misses.Load(), ParkedBytes: int64(parked)}
	}
	return out
}

func classSize(c int) int { return 1<<(minBufShift+c) + bufSlack }

// bufClass is the smallest class holding n bytes, -1 if none does.
func bufClass(n int) int {
	if n > classSize(len(freeBufs)-1) {
		return -1
	}
	return max(0, bits.Len(uint(max(0, n-bufSlack-1)))-minBufShift)
}

// GetBuf returns an empty slice with capacity for n bytes, recycled
// when n fits a size class. Its contents are unspecified.
func GetBuf(n int) []byte {
	c := bufClass(n)
	if c < 0 {
		return make([]byte, 0, n)
	}
	size, l := classSize(c), &freeBufs[c]
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.idle == nil {
		l.idle = make([][]byte, min(classIdle, classRetain/size))
		for i := range l.idle {
			l.idle[i] = make([]byte, 0, size)
		}
	}
	k := len(l.idle) - 1
	if k < 0 { // more in flight than the class holds
		l.misses.Add(1)
		return make([]byte, 0, size)
	}
	l.hits.Add(1)
	b := l.idle[k]
	l.idle = l.idle[:k]
	trackBuf(b, false)
	return b
}

// PutBuf recycles a slice from GetBuf. The caller must hold the only
// live reference: b and everything sliced from it are dead afterwards.
// Slices that did not come from a size class (oversize, or regrown by
// append) are left to the garbage collector.
func PutBuf(b []byte) {
	c := bufClass(cap(b))
	if c < 0 || cap(b) != classSize(c) {
		return
	}
	l := &freeBufs[c]
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.idle) < cap(l.idle) {
		trackBuf(b, true)
		l.idle = append(l.idle, b[:0])
	}
}

// poisoned is the ownership check tests switch on with PoisonReleased:
// a released slice is overwritten with 0xDB, so a reader that kept a
// reference sees that, and releasing an idle slice panics. A released
// frame Buffer is retired instead of recycled, and any Release, encode
// or Raw of it panics.
var poisoned struct {
	on   atomic.Bool
	mu   sync.Mutex
	idle map[*byte]bool
}

// PoisonReleased turns the released-buffer check on or off. Tests only.
func PoisonReleased(on bool) {
	poisoned.mu.Lock()
	poisoned.idle = make(map[*byte]bool)
	poisoned.mu.Unlock()
	poisoned.on.Store(on)
}

// Poisoning reports whether PoisonReleased is on, so that a package
// recycling records of its own scribbles over them on release as well.
func Poisoning() bool { return poisoned.on.Load() }

// trackBuf records b entering (idle) or leaving the free lists.
func trackBuf(b []byte, idle bool) {
	if !poisoned.on.Load() {
		return
	}
	b = b[:cap(b)]
	poisoned.mu.Lock()
	defer poisoned.mu.Unlock()
	if !idle {
		delete(poisoned.idle, &b[0])
		return
	}
	if poisoned.idle[&b[0]] {
		panic("wire: buffer released twice")
	}
	poisoned.idle[&b[0]] = true
	for i := range b {
		b[i] = 0xDB
	}
}
