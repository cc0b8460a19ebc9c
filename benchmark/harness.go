package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// moved is what one timed phase transferred: bytes of the workload's
// primary activity (what it is named for) and of its secondary one
// (the verifying read-back, the warm re-read, or mixed_rw's readers).
// A phase that runs both at once (mixed_rw) reports each one's own
// wall time; otherwise the phase's wall time stands for both.
type moved struct {
	pBytes, sBytes int64
	pWall, sWall   time.Duration
	ops            int64 // unit client operations completed
}

// sliceStats is one slice: fixed work, so slices are comparable and
// every reported timing is a median over them. The fields are exported
// because a measuring process hands its slices to the run as JSON.
type sliceStats struct {
	PBytes, SBytes int64
	PWall, SWall   time.Duration

	// The main phase is the one the workload is named for; process cost
	// (CPU, allocation) and layer counters are charged to it alone, so
	// the read-back that verifies a write slice does not dilute them.
	Wall       time.Duration
	Payload    int64
	CPU        time.Duration
	AllocBytes uint64
	Mallocs    uint64
	Ops        int64
	Layers     layerCounters `json:"-"` // traced pass only, which never leaves its process
}

func mbPerS(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

// meter collects everything a pass over a workload measures. Workload
// code reports through it and never reads a clock for a reported
// number itself, except per-call latencies, which it hands to sample.
type meter struct {
	st  *stack
	rec *recorder // nil outside the traced pass

	slices []sliceStats
	cur    *sliceStats

	attempted, failed atomic.Int64

	mu      sync.Mutex
	samples map[string][]float64 // per-call latencies in ms, by call name
	logged  int

	// Client-side counters, summed as each slice retires its clients.
	cacheHits, cacheMisses   int64
	chainFallbacks           uint64
	prefetched, prefetchHits int64
}

// newMeter returns a meter that records spans to s's recorder when s
// is set. The stack it reads counters from is attached before use.
func newMeter(s *seams) *meter {
	m := &meter{samples: make(map[string][]float64)}
	if s != nil {
		m.rec = s.rec
	}
	return m
}

func (m *meter) beginSlice() {
	m.slices = append(m.slices, sliceStats{})
	m.cur = &m.slices[len(m.slices)-1]
}

// timed runs one phase of the current slice under the clock; main
// marks the phase costs are charged to.
func (m *meter) timed(main bool, fn func() moved) {
	var ms0, ms1 runtime.MemStats
	var lc0 layerCounters
	var cpu0 time.Duration
	if main {
		lc0 = m.st.counters()
		runtime.ReadMemStats(&ms0)
		cpu0 = processCPU()
	}
	t0 := time.Now()
	mv := fn()
	wall := time.Since(t0)
	s := m.cur
	if main {
		s.CPU = processCPU() - cpu0
		runtime.ReadMemStats(&ms1)
		s.Layers = m.st.counters().sub(lc0)
		s.Wall = wall
		s.Payload = mv.pBytes + mv.sBytes
		s.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		s.Mallocs = ms1.Mallocs - ms0.Mallocs
		s.Ops = mv.ops
	}
	if mv.pWall == 0 {
		mv.pWall = wall
	}
	if mv.sWall == 0 {
		mv.sWall = wall
	}
	if mv.pBytes > 0 {
		s.PBytes, s.PWall = s.PBytes+mv.pBytes, s.PWall+mv.pWall
	}
	if mv.sBytes > 0 {
		s.SBytes, s.SWall = s.SBytes+mv.sBytes, s.SWall+mv.sWall
	}
}

// sample files per-call latencies (ms) under a call name.
func (m *meter) sample(name string, ms []float64) {
	m.mu.Lock()
	m.samples[name] = append(m.samples[name], ms...)
	m.mu.Unlock()
}

// op counts one attempted client operation and, if err is set, one
// failed one: an error and a content mismatch are the same failure.
func (m *meter) op(err error) {
	m.attempted.Add(1)
	if err == nil {
		return
	}
	m.failed.Add(1)
	m.mu.Lock()
	if m.logged < 8 {
		m.logged++
		fmt.Fprintf(os.Stderr, "failed op: %v\n", err)
	}
	m.mu.Unlock()
}

// retire folds a finished slice's client-side counters in.
func (m *meter) retire(cs clientStats) {
	m.mu.Lock()
	m.cacheHits += cs.cacheHits
	m.cacheMisses += cs.cacheMisses
	m.chainFallbacks += cs.chainFallbacks
	m.prefetched += cs.prefetched
	m.prefetchHits += cs.prefetchHits
	m.mu.Unlock()
}

// clientStats is what a slice's clients counted before being dropped.
type clientStats struct {
	cacheHits, cacheMisses   int64
	chainFallbacks           uint64
	prefetched, prefetchHits int64
}

// Per-slice series the summaries are medians of.

func (m *meter) series(f func(s sliceStats) (float64, bool)) []float64 {
	var out []float64
	for _, s := range m.slices {
		if v, ok := f(s); ok {
			out = append(out, v)
		}
	}
	return out
}

func (m *meter) primaryMBs() []float64 {
	return m.series(func(s sliceStats) (float64, bool) { return mbPerS(s.PBytes, s.PWall), s.PBytes > 0 })
}

func (m *meter) secondaryMBs() []float64 {
	return m.series(func(s sliceStats) (float64, bool) { return mbPerS(s.SBytes, s.SWall), s.SBytes > 0 })
}

// mainMBs is all payload of the main phase over its wall time.
func (m *meter) mainMBs() []float64 {
	return m.series(func(s sliceStats) (float64, bool) { return mbPerS(s.Payload, s.Wall), s.Payload > 0 })
}

func (m *meter) cpuPerGB() []float64 {
	return m.series(func(s sliceStats) (float64, bool) {
		return s.CPU.Seconds() / (float64(s.Payload) / 1e9), s.Payload > 0
	})
}

// Allocation ratios are totals over the timed slices, not medians: a
// GC cycle's bookkeeping lands in whichever slice it happens to end in.
func (m *meter) allocTotals() (bytesPerByte, mallocsPerMB float64) {
	var payload int64
	var ab, mc uint64
	for _, s := range m.slices {
		payload += s.Payload
		ab += s.AllocBytes
		mc += s.Mallocs
	}
	if payload == 0 {
		return 0, 0
	}
	return float64(ab) / float64(payload), float64(mc) / (float64(payload) / 1e6)
}

func (m *meter) layerTotals() (lc layerCounters, payload, ops int64) {
	for _, s := range m.slices {
		lc = lc.add(s.Layers)
		payload += s.Payload
		ops += s.Ops
	}
	return lc, payload, ops
}

// steady reports whether throughput depends on how old the measuring
// process is. segs holds each process's slices in the order it measured
// them. Slices are compared by their position in their process's life,
// pooled over the processes of the run: the median main-phase
// throughput of the last third of each process's slices must be within
// 10% of the first third's. Growing history, a filling heap or a memory
// cliff all show as such drift, and a drifting run is invalid, not
// slow. (Pooling by position also keeps a burst of interference, which
// lands on neighbouring slices of one process, from reading as drift.)
// A process that measured fewer than three slices has no thirds and
// takes no part.
func steady(segs [][]sliceStats) (ok bool, first, last float64) {
	var head, tail []float64
	for _, seg := range segs {
		mbs := (&meter{slices: seg}).mainMBs()
		k := len(mbs) / 3
		head = append(head, mbs[:k]...)
		tail = append(tail, mbs[len(mbs)-k:]...)
	}
	if len(head) == 0 {
		return true, 0, 0
	}
	first, last = median(head), median(tail)
	return last >= first*0.9 && last <= first*1.1, first, last
}

// processCPU is user+system CPU of this process: clients and daemons
// share it, which is the point — a gain that moves work from one side
// to the other does not show as a gain.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMB reads the process's high-water resident set (VmHWM).
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// settle runs in the untimed gap between slices, after storage is
// recycled: every slice then starts from the same heap.
func settle() { runtime.GC() }

// Spans. The traced pass records one span per client operation and per
// seam call, in memory; they are written out when the pass ends. A nil
// recorder records nothing, so workload code calls it unconditionally.

type span struct {
	ID, Parent, Op uint64
	Name           string
	Start, End     int64 // ns since the recorder started
}

type recorder struct {
	t0   time.Time
	next atomic.Uint64
	mu   sync.Mutex
	done []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

type spanKey struct{}

type spanRef struct{ id, op uint64 }

type activeSpan struct {
	r     *recorder
	s     span
	start time.Time
}

// start opens a span under whatever span ctx already carries; a span
// with no parent is a client operation and names the op its
// descendants share.
func (r *recorder) start(ctx context.Context, name string) (context.Context, activeSpan) {
	if r == nil {
		return ctx, activeSpan{}
	}
	id := r.next.Add(1)
	s := span{ID: id, Op: id, Name: name}
	if p, ok := ctx.Value(spanKey{}).(spanRef); ok {
		s.Parent, s.Op = p.id, p.op
	}
	return context.WithValue(ctx, spanKey{}, spanRef{id: id, op: s.Op}), activeSpan{r: r, s: s, start: time.Now()}
}

func (a activeSpan) end() {
	if a.r == nil {
		return
	}
	a.s.Start = int64(a.start.Sub(a.r.t0))
	a.s.End = int64(time.Since(a.r.t0))
	a.r.mu.Lock()
	a.r.done = append(a.r.done, a.s)
	a.r.mu.Unlock()
}
