package wire

import "testing"

// TestPoolStats: a class reports what it recycled, what it had to
// allocate once it was empty, and what it holds idle — and counting
// costs GetBuf and PutBuf no allocation.
func TestPoolStats(t *testing.T) {
	const n = 3000 // class 2: 4 KB payloads
	class := func() ClassStats {
		for _, st := range PoolStats() {
			if st.Size >= n {
				return st
			}
		}
		t.Fatal("no class holds 3000 bytes")
		return ClassStats{}
	}
	PutBuf(GetBuf(n)) // fill the class
	start := class()
	if start.Size != 4096 || start.ParkedBytes != classIdle*int64(classSize(2)) {
		t.Fatalf("class at rest = %+v, want %d idle slices of 4096+%d", start, classIdle, bufSlack)
	}
	held := make([][]byte, 0, classIdle+5)
	for i := 0; i < classIdle+5; i++ {
		held = append(held, GetBuf(n))
	}
	drained := class()
	if drained.Hits-start.Hits != classIdle || drained.Misses-start.Misses != 5 || drained.ParkedBytes != 0 {
		t.Errorf("after taking %d: %+v since %+v, want %d hits, 5 misses, nothing parked", classIdle+5, drained, start, classIdle)
	}
	for _, b := range held {
		PutBuf(b)
	}
	if got := class(); got.ParkedBytes != start.ParkedBytes {
		t.Errorf("parked %d bytes after returning everything, want %d (the overflow goes to the collector)", got.ParkedBytes, start.ParkedBytes)
	}
	if allocs := testing.AllocsPerRun(1000, func() { PutBuf(GetBuf(n)) }); allocs != 0 {
		t.Errorf("a recycled Get/Put pair allocates %.1f times", allocs)
	}
}

// TestFramesAreRecycled: once warm, a frame costs no allocation, its
// Buffer and its tail vector included, nor does letting it go.
func TestFramesAreRecycled(t *testing.T) {
	tail := []byte("by reference")
	frame := func() {
		f := NewFrame(38, 64)
		f.U64(7)
		f.Attach(tail)
		f.Attach(tail)
		f.Release()
	}
	frame()
	if allocs := testing.AllocsPerRun(1000, frame); allocs != 0 {
		t.Errorf("a warm NewFrame/Release with two tails allocates %.1f times", allocs)
	}
}

// TestReleasedFramePoisoned: under PoisonReleased a released frame is
// tracked like a released slice: it is retired, not handed out again, so
// every later use of it panics — a second Release, an encode, Raw. Without
// poison a second Release is a no-op that cannot put the Buffer on the
// free list twice.
func TestReleasedFramePoisoned(t *testing.T) {
	uses := map[string]func(*Buffer){
		"Release": (*Buffer).Release,
		"U64":     func(f *Buffer) { f.U64(1) },
		"Bytes32": func(f *Buffer) { f.Bytes32([]byte("x")) },
		"Extend":  func(f *Buffer) { f.Extend(4) },
		"Raw":     func(f *Buffer) { _ = f.Raw() },
	}
	PoisonReleased(true)
	defer PoisonReleased(false)
	for name, use := range uses {
		f := NewFrame(8, 8)
		f.Release()
		if next := NewFrame(8, 8); next == f {
			t.Fatal("a poisoned frame was handed out again")
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Release did not panic", name)
				}
			}()
			use(f)
		}()
	}

	PoisonReleased(false)
	f := NewFrame(8, 8)
	f.Release()
	f.Release()
	a, b := NewFrame(8, 8), NewFrame(8, 8)
	if a == b {
		t.Error("a frame released twice was handed out twice")
	}
	a.Release()
	b.Release()
}
