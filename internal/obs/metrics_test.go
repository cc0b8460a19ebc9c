package obs

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("ops") != c {
		t.Fatal("Counter did not return the same instance")
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	r.GaugeFunc("live", func() int64 { return 42 })
	s := r.Snapshot()
	if s.Counters["ops"] != 5 || s.Gauges["depth"] != 4 || s.Gauges["live"] != 42 {
		t.Fatalf("snapshot mismatch: %+v", s)
	}
}

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter must stay zero")
	}
	g := r.Gauge("y")
	g.Set(9)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge must stay zero")
	}
	h := r.Histogram("z")
	h.Observe(100)
	h.ObserveSince(time.Now())
	if h.Count() != 0 || h.SnapshotValues().P50 != 0 {
		t.Fatal("nil histogram must stay empty")
	}
	r.GaugeFunc("f", func() int64 { return 1 })
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	// 1000 observations spread uniformly over [1ms, 2ms): they all land
	// in one power-of-two bucket, so interpolation is what recovers the
	// percentile positions.
	const base = 1 << 20 // ~1.05ms in ns
	for i := 0; i < 1000; i++ {
		h.Observe(base + int64(i)*base/1000)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	s := h.SnapshotValues()
	p50, p99, p999 := s.P50, s.P99, s.P999
	if !(p50 < p99 && p99 < p999) {
		t.Fatalf("quantiles not ordered: p50=%v p99=%v p999=%v", p50, p99, p999)
	}
	// Interpolated values must stay inside the bucket the data occupies.
	if p50 < base || p999 > 2*base {
		t.Fatalf("quantiles escaped the bucket: p50=%v p999=%v (bucket [%d,%d))", p50, p999, base, 2*base)
	}
	// p50 of a uniform fill should land near the middle of the bucket.
	mid := float64(base) * 1.5
	if p50 < 0.8*mid || p50 > 1.2*mid {
		t.Fatalf("p50 = %v, want near %v", p50, mid)
	}
}

func TestHistogramWideSpread(t *testing.T) {
	h := &Histogram{}
	// 90 fast ops (~1µs), 10 slow ops (~1s): p50 must sit with the fast
	// mass, p999 with the slow tail.
	for i := 0; i < 90; i++ {
		h.Observe(int64(time.Microsecond))
	}
	for i := 0; i < 10; i++ {
		h.Observe(int64(time.Second))
	}
	s := h.SnapshotValues()
	if p50 := s.P50; p50 > float64(4*time.Microsecond) {
		t.Fatalf("p50 = %v ns, want ~1µs", p50)
	}
	if p999 := s.P999; p999 < float64(500*time.Millisecond) {
		t.Fatalf("p999 = %v ns, want ~1s", p999)
	}
	if h.Observe(-5); h.Count() != 101 {
		t.Fatal("negative observations must still count")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(seed + int64(i))
			}
		}(int64(w + 1))
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
}

// TestSnapshotBucketsCumulative: the exported bucket counts are
// cumulative (each le's count includes every smaller bucket), closing
// at the total.
func TestSnapshotBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for _, v := range []int64{1, 1, 3, 10, 1000} {
		h.Observe(v)
	}
	s := h.SnapshotValues()
	if len(s.Buckets) == 0 {
		t.Fatal("snapshot has no buckets")
	}
	var prevLe, prevCount int64
	for _, b := range s.Buckets {
		if b.Le <= prevLe {
			t.Fatalf("bucket bounds not increasing: %d after %d", b.Le, prevLe)
		}
		if b.Count < prevCount {
			t.Fatalf("bucket counts not cumulative: %d after %d", b.Count, prevCount)
		}
		prevLe, prevCount = b.Le, b.Count
	}
	if last := s.Buckets[len(s.Buckets)-1].Count; last != 5 {
		t.Errorf("top bucket count = %d, want the total 5", last)
	}
	// Spot-check the first bucket: both observations of 1 land in le=1.
	if s.Buckets[0].Le != 1 || s.Buckets[0].Count != 2 {
		t.Errorf("first bucket = {le=%d} %d, want {le=1} 2", s.Buckets[0].Le, s.Buckets[0].Count)
	}
}

// TestSinceIsTheWindow: differencing two snapshots of one histogram
// gives exactly the histogram of what was observed between them, so a
// slow warm-up leaves no trace in the window's percentiles.
func TestSinceIsTheWindow(t *testing.T) {
	h, fast := &Histogram{}, &Histogram{}
	for i := 0; i < 100; i++ {
		h.Observe(int64(time.Second) + int64(i))
	}
	prev := h.SnapshotValues()
	for i := 0; i < 1000; i++ {
		v := int64(time.Microsecond) + int64(i)
		h.Observe(v)
		fast.Observe(v)
	}
	cur := h.SnapshotValues()

	if got, want := cur.Since(prev), fast.SnapshotValues(); !reflect.DeepEqual(got, want) {
		t.Errorf("Since = %+v\nwant the fast observations alone: %+v", got, want)
	}
	if got := cur.Since(HistSnapshot{}); !reflect.DeepEqual(got, cur) {
		t.Errorf("Since(zero) = %+v, want the snapshot itself %+v", got, cur)
	}
	// A restart between the snapshots: the process that answers now
	// saw more observations than before, but none of the slow ones.
	if got := fast.SnapshotValues().Since(prev); !reflect.DeepEqual(got, fast.SnapshotValues()) {
		t.Errorf("Since(a prev from before a restart) = %+v, want the later snapshot unchanged", got)
	}
	if got := prev.Since(cur); !reflect.DeepEqual(got, prev) {
		t.Errorf("Since(a later prev) = %+v, want the snapshot unchanged", got)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("ops")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkCounterIncNoop(b *testing.B) {
	var r *Registry
	c := r.Counter("ops")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("latency")
	b.RunParallel(func(pb *testing.PB) {
		i := int64(0)
		for pb.Next() {
			i++
			h.Observe(i)
		}
	})
}

func BenchmarkHistogramObserveNoop(b *testing.B) {
	var r *Registry
	h := r.Histogram("latency")
	b.RunParallel(func(pb *testing.PB) {
		i := int64(0)
		for pb.Next() {
			i++
			h.Observe(i)
		}
	})
}
