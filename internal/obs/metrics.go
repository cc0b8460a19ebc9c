// Package obs is the observability plane of every BlobSeer process. A
// plane is one named service's metric registry plus its span tracer;
// one Exporter serves a process's planes over HTTP (/metrics, /trace),
// and one fetch path reads them back for `bsfsctl top` and `bsfsctl
// trace`.
//
// Metrics are counters, gauges, callback gauges, and fixed-bucket
// latency histograms with interpolated percentiles. They are built for
// hot paths — one atomic add per counter increment, three plus an O(1)
// bucket index per histogram observation — and every method is safe on
// a nil receiver, so a nil *Registry records nothing. Every metric is
// cumulative since its process started; a reader takes a window by
// differencing two snapshots.
//
// Tracing carries 128-bit trace IDs on the RPC frame between services;
// each process records the spans it executes into a bounded in-memory
// ring, and Stitch reassembles the per-service fragments into one
// causal tree. Recording is nil-safe and the not-sampled path allocates
// nothing, so tracing stays compiled into every hot path until a
// request is actually sampled. There is no collector daemon: `bsfsctl
// trace <id>` polls every service's /trace endpoint and stitches
// client-side.
package obs

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be >= 0 for the value to stay monotonic).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can move both ways.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count: one bucket per bit length of
// the observed value, so bucket i holds values in (2^(i-1), 2^i] and
// indexing is a single bits.Len64 — no search, no configuration.
// 64 buckets cover every int64, from 1 ns to ~292 years.
const histBuckets = 64

// Histogram records int64 observations (latency in nanoseconds, batch
// sizes, frame counts, ...) into power-of-two buckets and estimates
// quantiles by linear interpolation inside the hit bucket. All methods
// are lock-free. Its counts are cumulative since it was made; a reader
// that wants a window differences two snapshots (HistSnapshot.Since).
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v)) - 1
}

// Observe records one value. Values <= 0 land in the first bucket.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
}

// ObserveSince records the elapsed nanoseconds since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h != nil {
		h.Observe(int64(time.Since(t0)))
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// quantileOf estimates the q-quantile (0 < q <= 1) of the bucket
// counts b holding total observations, by walking the buckets and
// interpolating linearly inside the bucket where the rank falls.
// Returns 0 with no observations.
func quantileOf(b *[histBuckets]int64, total int64, q float64) float64 {
	if total <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var seen float64
	for i := 0; i < histBuckets; i++ {
		n := float64(b[i])
		if n == 0 {
			continue
		}
		if seen+n >= rank {
			lo, hi := bucketBounds(i)
			frac := (rank - seen) / n
			return lo + frac*(hi-lo)
		}
		seen += n
	}
	// Rounding left the rank past the last populated bucket.
	return math.Pow(2, float64(histBuckets))
}

// bucketBounds returns the value range (lo, hi] covered by bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 1
	}
	lo = math.Pow(2, float64(i))
	return lo, lo * 2
}

// HistBucket is one cumulative bucket line of a snapshot: the count of
// observations <= Le.
type HistBucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistSnapshot is a histogram's exported shape: count, sum, the three
// interpolated percentiles every BlobSeer dashboard cares about, and
// the cumulative bucket counts (up to the highest populated bucket),
// which are what a reader differences to take a window.
type HistSnapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	P50     float64      `json:"p50"`
	P99     float64      `json:"p99"`
	P999    float64      `json:"p999"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// bucketLe is bucket i's inclusive upper bound as an int64 (the last
// buckets clamp to MaxInt64 rather than overflow).
func bucketLe(i int) int64 {
	if i == 0 {
		return 1
	}
	if i >= 62 {
		return math.MaxInt64
	}
	return int64(1) << (i + 1)
}

// SnapshotValues captures the histogram's exported shape.
func (h *Histogram) SnapshotValues() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	var b [histBuckets]int64
	for i := range b {
		b[i] = h.buckets[i].Load()
	}
	return snapshotOf(&b, h.count.Load(), h.sum.Load())
}

// Since returns the histogram of what was observed between prev and h,
// two snapshots of one histogram: the buckets are differenced and
// count, sum and percentiles recomputed. A prev that is not earlier
// than h (the process restarted in between) leaves h as it is.
func (h HistSnapshot) Since(prev HistSnapshot) HistSnapshot {
	if prev.Count > h.Count {
		return h
	}
	b, pb := h.bucketCounts(), prev.bucketCounts()
	for i := range b {
		if pb[i] > b[i] {
			return h
		}
		b[i] -= pb[i]
	}
	return snapshotOf(&b, h.Count-prev.Count, h.Sum-prev.Sum)
}

// bucketCounts undoes the cumulation of s.Buckets.
func (s HistSnapshot) bucketCounts() (b [histBuckets]int64) {
	var cum int64
	for i := 0; i < len(s.Buckets) && i < histBuckets; i++ {
		b[i] = s.Buckets[i].Count - cum
		cum = s.Buckets[i].Count
	}
	return b
}

// snapshotOf shapes per-bucket counts into a snapshot, for the
// since-start view and for any window alike. The percentiles rank
// within the buckets' own total: count is read apart from them, and
// an observation in flight may be in one and not yet in the other.
func snapshotOf(b *[histBuckets]int64, count, sum int64) HistSnapshot {
	top := -1
	var n int64
	for i, c := range b {
		if c != 0 {
			top = i
			n += c
		}
	}
	s := HistSnapshot{
		Count: count,
		Sum:   sum,
		P50:   quantileOf(b, n, 0.50),
		P99:   quantileOf(b, n, 0.99),
		P999:  quantileOf(b, n, 0.999),
	}
	var cum int64
	for i := 0; i <= top; i++ {
		cum += b[i]
		s.Buckets = append(s.Buckets, HistBucket{Le: bucketLe(i), Count: cum})
	}
	return s
}

// Snapshot is a point-in-time copy of one registry: plain values only,
// safe to encode.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Registry holds one service instance's named metrics. Lookups
// get-or-create under a mutex; services resolve their metrics once at
// construction so the hot path never touches the map. A nil *Registry
// hands out nil metrics, turning every downstream operation into a
// no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	funcs    map[string]func() int64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		funcs:    make(map[string]func() int64),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a callback gauge: fn is evaluated at snapshot
// time only, so it may hold locks or walk state that would be too
// expensive per-operation (WAL status, membership tables, store
// occupancy).
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot copies every metric's current value. Callback gauges are
// evaluated here; a panic in one is the caller's bug and intentionally
// not swallowed.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	funcs := make(map[string]func() int64, len(r.funcs))
	for k, v := range r.funcs {
		funcs[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	s := Snapshot{}
	if len(counters) > 0 {
		s.Counters = make(map[string]int64, len(counters))
		for k, v := range counters {
			s.Counters[k] = v.Value()
		}
	}
	if len(gauges) > 0 || len(funcs) > 0 {
		s.Gauges = make(map[string]int64, len(gauges)+len(funcs))
		for k, v := range gauges {
			s.Gauges[k] = v.Value()
		}
		for k, fn := range funcs {
			s.Gauges[k] = fn()
		}
	}
	if len(hists) > 0 {
		s.Histograms = make(map[string]HistSnapshot, len(hists))
		for k, v := range hists {
			s.Histograms[k] = v.SnapshotValues()
		}
	}
	return s
}
