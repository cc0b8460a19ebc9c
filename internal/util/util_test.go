package util

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 4, 0},
		{1, 4, 1},
		{4, 4, 1},
		{5, 4, 2},
		{-3, 4, 0},
		{64 * MB, 64 * MB, 1},
		{64*MB + 1, 64 * MB, 2},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCeilDivPanicsOnBadDivisor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero divisor")
		}
	}()
	CeilDiv(1, 0)
}

func TestNextPow2(t *testing.T) {
	cases := []struct{ in, want int64 }{
		{-5, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {246, 256}, {1 << 20, 1 << 20},
	}
	for _, c := range cases {
		if got := NextPow2(c.in); got != c.want {
			t.Errorf("NextPow2(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestNextPow2Property(t *testing.T) {
	f := func(n uint16) bool {
		v := NextPow2(int64(n))
		return IsPow2(v) && v >= int64(n) && (v == 1 || v/2 < int64(n) || int64(n) <= 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int64{1, 2, 4, 8, 1 << 30} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false, want true", n)
		}
	}
	for _, n := range []int64{0, -1, 3, 6, 12, 1<<30 + 1} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true, want false", n)
		}
	}
}

func TestMeanStdDev(t *testing.T) {
	if m := Mean(nil); m != 0 {
		t.Errorf("Mean(nil) = %v", m)
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
}

func TestManhattanDistance(t *testing.T) {
	// Perfectly balanced layout has distance 0.
	if d := ManhattanDistance([]int{3, 3, 3, 3}); d != 0 {
		t.Errorf("balanced distance = %v", d)
	}
	// The paper's example shape: all chunks clustered on few nodes.
	// 4 blocks all on node 0 of 4 nodes: ideal = 1 each;
	// |4-1| + 3*|0-1| = 6.
	if d := ManhattanDistance([]int{4, 0, 0, 0}); d != 6 {
		t.Errorf("clustered distance = %v, want 6", d)
	}
	if d := ManhattanDistance(nil); d != 0 {
		t.Errorf("empty distance = %v", d)
	}
}

func TestManhattanDistanceProperty(t *testing.T) {
	// Distance is invariant under permutation and zero iff balanced.
	f := func(a, b, c, d uint8) bool {
		v1 := []int{int(a), int(b), int(c), int(d)}
		v2 := []int{int(d), int(c), int(b), int(a)}
		return math.Abs(ManhattanDistance(v1)-ManhattanDistance(v2)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitMix64Deterministic(t *testing.T) {
	a, b := NewSplitMix64(42), NewSplitMix64(42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewSplitMix64(43)
	same := true
	a = NewSplitMix64(42)
	for i := 0; i < 10; i++ {
		if a.Next() != c.Next() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestSplitMix64Bounds(t *testing.T) {
	r := NewSplitMix64(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of bounds: %d", v)
		}
		if v := r.Int63n(1 << 40); v < 0 || v >= 1<<40 {
			t.Fatalf("Int63n out of bounds: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of bounds: %v", f)
		}
	}
}

func TestSplitMix64Perm(t *testing.T) {
	r := NewSplitMix64(1)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

// goid is the running goroutine's "goroutine N" label.
func goid() string {
	b := make([]byte, 32)
	b = b[:runtime.Stack(b, false)]
	return string(b[:bytes.IndexByte(b, '[')])
}

func TestWindowed(t *testing.T) {
	// Every index runs once, never more than the window at a time, the
	// last one on the caller's goroutine.
	var mu sync.Mutex
	var inflight, peak int
	seen := make([]int, 20)
	caller, lastOn := goid(), ""
	err := Windowed(len(seen), 3, func(i int) error {
		mu.Lock()
		seen[i]++
		inflight++
		peak = max(peak, inflight)
		if i == len(seen)-1 {
			lastOn = goid()
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		inflight--
		mu.Unlock()
		return nil
	})
	if err != nil || peak != 3 || lastOn != caller {
		t.Fatalf("Windowed = %v, %d in flight at most, last task on %q; want nil, 3 and %q", err, peak, lastOn, caller)
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("fn(%d) ran %d times", i, n)
		}
	}
	// The first error comes back, and nothing starts after a failure.
	boom := errors.New("boom")
	var started atomic.Int32
	err = Windowed(100, 2, func(i int) error {
		started.Add(1)
		if i == 3 {
			return boom
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != boom || started.Load() > 10 {
		t.Errorf("Windowed = %v after starting %d of 100, want boom after a handful", err, started.Load())
	}
	// One task is a plain call.
	if err := Windowed(1, 4, func(int) error {
		if goid() != caller {
			t.Error("a single task left the calling goroutine")
		}
		return boom
	}); err != boom {
		t.Errorf("Windowed(1) = %v", err)
	}
}
