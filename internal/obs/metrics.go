// Package obs is the observability plane of every BlobSeer process. A
// plane is one named service's metric registry plus its span tracer;
// one Exporter serves a process's planes over HTTP (/metrics, /trace),
// and one fetch path reads them back for `bsfsctl top` and `bsfsctl
// trace`.
//
// Metrics are counters, gauges, callback gauges, and fixed-bucket
// latency histograms with interpolated percentiles. They are built for
// hot paths — one atomic add per counter increment, one atomic add plus
// an O(1) bucket index per histogram observation — and every method is
// safe on a nil receiver, so a nil *Registry records nothing.
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

// Rate windowing: in addition to the cumulative buckets, a histogram
// keeps histWindows rotating bucket windows of DefaultWindow each and
// reports the merge of the last DefaultWindowMerge as its "recent"
// view — so a mid-run latency regression shows up instead of diluting
// into since-process-start history. Rotation is epoch-stamped CAS:
// the first observer of a new epoch zeroes the slot it reuses.
// Observations racing a rotation may land in either epoch; that
// boundary noise is acceptable for a monitoring window.
const (
	histWindows = 8
	// DefaultWindow is the span of one rotating window slot.
	DefaultWindow = 10 * time.Second
	// DefaultWindowMerge is how many trailing windows merge into the
	// "recent" view (3 × 10s ≈ the last half minute).
	DefaultWindowMerge = 3
)

type histWindow struct {
	epoch   atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Histogram records int64 observations (latency in nanoseconds, batch
// sizes, frame counts, ...) into power-of-two buckets and estimates
// quantiles by linear interpolation inside the hit bucket. All methods
// are lock-free. The zero value is cumulative-only; registry-created
// histograms also maintain the rotating recent windows.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64

	window   int64 // window slot span in ns; 0 disables windowing
	winMerge int   // trailing windows merged into the recent view
	win      [histWindows]histWindow
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
	var now int64
	if h.window > 0 {
		now = time.Now().UnixNano()
	}
	h.observe(v, now)
}

// ObserveSince records the elapsed nanoseconds since t0. It reads the
// clock once: the reading that ends the interval also picks its window.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	now := time.Now()
	h.observe(int64(now.Sub(t0)), now.UnixNano())
}

// observe records v at now, the wall clock in ns (read only when h is
// windowed).
func (h *Histogram) observe(v, now int64) {
	idx := bucketIndex(v)
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[idx].Add(1)
	if h.window > 0 {
		e := now / h.window
		w := &h.win[int(e%histWindows)]
		if old := w.epoch.Load(); old != e {
			if w.epoch.CompareAndSwap(old, e) {
				// This slot last held epoch e-histWindows; the winner
				// of the CAS recycles it for the new epoch.
				w.count.Store(0)
				w.sum.Store(0)
				for i := range w.buckets {
					w.buckets[i].Store(0)
				}
			}
		}
		w.count.Add(1)
		w.sum.Add(v)
		w.buckets[idx].Add(1)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile estimates the q-quantile (0 < q <= 1) by walking the bucket
// counts and interpolating linearly inside the bucket where the rank
// falls. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	var b [histBuckets]int64
	for i := range b {
		b[i] = h.buckets[i].Load()
	}
	return quantileOf(&b, h.count.Load(), q)
}

// quantileOf is the interpolation shared by the cumulative and the
// windowed views: it walks a plain bucket-count array so merged window
// snapshots get the same estimator as live histograms.
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

// WindowStats is the merged view of a histogram's trailing windows:
// the same count/sum/percentile shape as the cumulative view, but
// covering only the last Seconds of observations.
type WindowStats struct {
	Seconds float64 `json:"seconds"`
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	P50     float64 `json:"p50"`
	P99     float64 `json:"p99"`
	P999    float64 `json:"p999"`
}

// HistSnapshot is a histogram's exported shape: count, sum, the three
// interpolated percentiles every BlobSeer dashboard cares about, the
// cumulative bucket counts (up to the highest populated bucket), and —
// for windowed histograms — the merged recent view.
type HistSnapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	P50     float64      `json:"p50"`
	P99     float64      `json:"p99"`
	P999    float64      `json:"p999"`
	Buckets []HistBucket `json:"buckets,omitempty"`
	Recent  *WindowStats `json:"recent,omitempty"`
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
	top := -1
	for i := range b {
		b[i] = h.buckets[i].Load()
		if b[i] != 0 {
			top = i
		}
	}
	count := h.count.Load()
	s := HistSnapshot{
		Count: count,
		Sum:   h.sum.Load(),
		P50:   quantileOf(&b, count, 0.50),
		P99:   quantileOf(&b, count, 0.99),
		P999:  quantileOf(&b, count, 0.999),
	}
	var cum int64
	for i := 0; i <= top; i++ {
		cum += b[i]
		s.Buckets = append(s.Buckets, HistBucket{Le: bucketLe(i), Count: cum})
	}
	s.Recent = h.Recent()
	return s
}

// Recent merges the histogram's trailing windows (the last winMerge
// slots, current one included) into one view. Nil when the histogram
// is not windowed.
func (h *Histogram) Recent() *WindowStats {
	if h == nil || h.window <= 0 {
		return nil
	}
	e0 := time.Now().UnixNano() / h.window
	var b [histBuckets]int64
	var count, sum int64
	for i := range h.win {
		w := &h.win[i]
		e := w.epoch.Load()
		if e <= e0 && e > e0-int64(h.winMerge) {
			count += w.count.Load()
			sum += w.sum.Load()
			for j := range b {
				b[j] += w.buckets[j].Load()
			}
		}
	}
	return &WindowStats{
		Seconds: time.Duration(h.window * int64(h.winMerge)).Seconds(),
		Count:   count,
		Sum:     sum,
		P50:     quantileOf(&b, count, 0.50),
		P99:     quantileOf(&b, count, 0.99),
		P999:    quantileOf(&b, count, 0.999),
	}
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

	window   time.Duration
	winMerge int
}

// NewRegistry returns an empty registry. Its histograms rotate recent
// windows at the package defaults; SetWindow overrides.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		funcs:    make(map[string]func() int64),
		hists:    make(map[string]*Histogram),
		window:   DefaultWindow,
		winMerge: DefaultWindowMerge,
	}
}

// SetWindow configures the rotating-window span and merge depth for
// histograms created after the call (tests shrink the window to
// milliseconds; d <= 0 turns windowing off entirely).
func (r *Registry) SetWindow(d time.Duration, merge int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.window = d
	if merge < 1 {
		merge = 1
	}
	if merge > histWindows-1 {
		// One slot is always the epoch being overwritten next; merging
		// all 8 would mix a window from two rotations ago into "recent".
		merge = histWindows - 1
	}
	r.winMerge = merge
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
		h = &Histogram{winMerge: r.winMerge}
		if r.window > 0 {
			h.window = int64(r.window)
		}
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
