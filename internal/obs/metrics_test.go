package obs

import (
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
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
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
	p50, p99, p999 := h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999)
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
	if p50 := h.Quantile(0.50); p50 > float64(4*time.Microsecond) {
		t.Fatalf("p50 = %v ns, want ~1µs", p50)
	}
	if p999 := h.Quantile(0.999); p999 < float64(500*time.Millisecond) {
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
