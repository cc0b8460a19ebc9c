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
