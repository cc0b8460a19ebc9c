package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"blobseer/internal/fs"
	"blobseer/internal/obs"
	"blobseer/internal/util"
)

// The blaster is a closed-loop load generator for a whole deployment:
// N workers drive a configurable open/read/write/append mix against a
// file system (a live cluster's BSFS mount, or the HDFS baseline),
// with an untimed ramp-up, a measured steady-state window, and a
// BENCH_blaster.json report of sustained throughput, per-op latency
// percentiles and the error rate, which must be zero. Every observation
// flows through an obs.Registry, so a -metrics-addr endpoint shows
// the client side of the run live next to the daemons' own registries.

// Blaster op names, in report order.
var blasterOps = []string{"open", "read", "write", "append"}

// BlasterConfig parameterizes one load run.
type BlasterConfig struct {
	// FS is the target file system (required).
	FS fs.FileSystem
	// Workers is the closed-loop worker count (default 4).
	Workers int
	// Duration is the measured steady-state window (default 10s).
	// 0 selects long-run mode: the window lasts until ctx is canceled.
	Duration time.Duration
	// Ramp is the untimed warm-up before measurement starts: workers
	// run the full mix but rates are taken only over the window.
	Ramp time.Duration
	// Files is the shared working set size (default 8); opens, reads
	// and appends spread across it uniformly.
	Files int
	// FileSize is each working-set file's initial size (default
	// 4×IOSize), the range random reads land in.
	FileSize int64
	// IOSize is the bytes moved per read/write/append op (default 64 KB).
	IOSize int
	// MixOpen/MixRead/MixWrite/MixAppend weight the op mix (default
	// 10/60/20/10; zero-total falls back to the default mix).
	MixOpen, MixRead, MixWrite, MixAppend int
	// Rate, when positive, switches the blaster from closed-loop to
	// paced open-loop mode: operations are issued against a global
	// schedule of Rate ops/s regardless of how fast the system answers.
	// Each op's corrected latency is measured from its *intended* start
	// time, so queueing delay from a stalled system is charged to the
	// ops that waited — the coordinated-omission correction a
	// closed-loop harness silently forgoes. The report then carries
	// both corrected and service-time percentiles.
	Rate float64
	// Registry receives the blaster's live metrics (per-op latency
	// histograms, op/error/byte counters). Nil creates a private one.
	Registry *obs.Registry
	// OnError, when non-nil, observes every failed op (diagnostics;
	// the op still counts as failed).
	OnError func(op string, err error)
	// Trace, when non-nil and TraceEvery > 0, wraps every TraceEvery-th
	// op's context (e.g. with obs.WithRoot) and returns the trace ID
	// it started; the first few IDs land in the report so a run can be
	// cross-examined with `bsfsctl trace`. The hook shape keeps bench
	// free of a client-stack dependency.
	Trace      func(ctx context.Context) (context.Context, string)
	TraceEvery int
	// Seed fixes the workers' RNG streams (default 1).
	Seed int64
}

func (c *BlasterConfig) fill() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Files <= 0 {
		c.Files = 8
	}
	if c.IOSize <= 0 {
		c.IOSize = 64 * int(util.KB)
	}
	if c.FileSize <= 0 {
		c.FileSize = 4 * int64(c.IOSize)
	}
	if c.MixOpen+c.MixRead+c.MixWrite+c.MixAppend <= 0 {
		c.MixOpen, c.MixRead, c.MixWrite, c.MixAppend = 10, 60, 20, 10
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// BlasterOpStats summarizes one op type over the measured window.
type BlasterOpStats struct {
	Count  int64   `json:"count"`
	Errors int64   `json:"errors"`
	P50us  float64 `json:"p50_us"`
	P99us  float64 `json:"p99_us"`
	P999us float64 `json:"p999_us"`
}

// BlasterReport is the BENCH_blaster.json document.
type BlasterReport struct {
	Workers   int                       `json:"workers"`
	Seconds   float64                   `json:"seconds"`
	Ops       map[string]BlasterOpStats `json:"ops"`
	TotalOps  int64                     `json:"total_ops"`
	OpsPerSec float64                   `json:"ops_per_sec"`
	ReadMBps  float64                   `json:"read_mbps"`
	WriteMBps float64                   `json:"write_mbps"`
	// TargetRate and Corrected are present only in paced open-loop
	// runs: Corrected repeats the per-op percentiles measured from each
	// op's intended start time, so a stalled system's queueing delay is
	// visible instead of silently omitted. Ops keeps the service-time
	// view (measured from actual start) in both modes.
	TargetRate float64                   `json:"target_rate,omitempty"`
	Corrected  map[string]BlasterOpStats `json:"corrected,omitempty"`
	TraceIDs   []string                  `json:"trace_ids,omitempty"`
	ErrorRate  float64                   `json:"error_rate"`
	// Cut counts the ops that failed because the run's own window
	// ended under them (long-run mode's cancel); they are not failures.
	Cut int64 `json:"cut"`
}

// Check validates the run: the window must have completed work and no
// op may have failed.
func (r BlasterReport) Check() error {
	if r.TotalOps <= 0 {
		return fmt.Errorf("blaster: no operations completed in the measured window")
	}
	if r.ErrorRate > 0 {
		return fmt.Errorf("blaster: error rate %.4f, want 0", r.ErrorRate)
	}
	return nil
}

// blasterMetrics is the pre-resolved instrument set all workers share.
type blasterMetrics struct {
	lat     map[string]*obs.Histogram
	corr    map[string]*obs.Histogram // paced mode only: intended-start latency
	ops     map[string]*obs.Counter
	errs    map[string]*obs.Counter
	cut     *obs.Counter
	bytesR  *obs.Counter
	bytesW  *obs.Counter
	workers *obs.Gauge
}

func newBlasterMetrics(reg *obs.Registry, paced bool) *blasterMetrics {
	m := &blasterMetrics{
		lat:     make(map[string]*obs.Histogram, len(blasterOps)),
		ops:     make(map[string]*obs.Counter, len(blasterOps)),
		errs:    make(map[string]*obs.Counter, len(blasterOps)),
		cut:     reg.Counter("ops_cut"),
		bytesR:  reg.Counter("bytes_read"),
		bytesW:  reg.Counter("bytes_written"),
		workers: reg.Gauge("workers"),
	}
	for _, op := range blasterOps {
		m.lat[op] = reg.Histogram("latency_" + op)
		m.ops[op] = reg.Counter("ops_" + op)
		m.errs[op] = reg.Counter("errors_" + op)
	}
	if paced {
		m.corr = make(map[string]*obs.Histogram, len(blasterOps))
		for _, op := range blasterOps {
			m.corr[op] = reg.Histogram("corrected_" + op)
		}
	}
	return m
}

// pacer hands out the open-loop schedule: ticket i's intended start is
// t0 + i/rate, shared across every worker through one atomic counter.
// A worker that falls behind its ticket runs it immediately — the
// op is late, and the corrected histogram charges it the full delay.
type pacer struct {
	start time.Time
	rate  float64
	next  atomic.Int64
}

func (p *pacer) intended() time.Time {
	i := p.next.Add(1) - 1
	return p.start.Add(time.Duration(float64(i) / p.rate * float64(time.Second)))
}

// traceTag tags every Nth op with a fresh trace and retains the first
// few IDs for the report.
type traceTag struct {
	hook  func(ctx context.Context) (context.Context, string)
	every int64
	n     atomic.Int64

	mu  sync.Mutex
	ids []string
}

func (t *traceTag) wrap(ctx context.Context) context.Context {
	if t == nil || t.hook == nil || t.every <= 0 {
		return ctx
	}
	if t.n.Add(1)%t.every != 1 && t.every != 1 {
		return ctx
	}
	ctx, id := t.hook(ctx)
	t.mu.Lock()
	if len(t.ids) < 16 {
		t.ids = append(t.ids, id)
	}
	t.mu.Unlock()
	return ctx
}

func (t *traceTag) traced() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.ids...)
}

// RunBlaster executes one load run: set up the working set, ramp, then
// measure for cfg.Duration (or until ctx cancels in long-run mode).
func RunBlaster(ctx context.Context, cfg BlasterConfig) (BlasterReport, error) {
	cfg.fill()
	if cfg.FS == nil {
		return BlasterReport{}, fmt.Errorf("blaster: no file system configured")
	}
	fsys := cfg.FS
	if err := fsys.Mkdirs(ctx, "/blaster"); err != nil {
		return BlasterReport{}, fmt.Errorf("blaster: mkdirs: %w", err)
	}
	// Working set: Files files of FileSize deterministic bytes each, so
	// reads always land on real data from the first tick.
	fill := make([]byte, cfg.FileSize)
	for i := range fill {
		fill[i] = byte('a' + i%26)
	}
	for i := 0; i < cfg.Files; i++ {
		w, err := fsys.Create(ctx, blasterFile(i), true)
		if err != nil {
			return BlasterReport{}, fmt.Errorf("blaster: create working set: %w", err)
		}
		if _, err := w.Write(fill); err != nil {
			w.Close()
			return BlasterReport{}, fmt.Errorf("blaster: fill working set: %w", err)
		}
		if err := w.Close(); err != nil {
			return BlasterReport{}, fmt.Errorf("blaster: fill working set: %w", err)
		}
	}

	bm := newBlasterMetrics(cfg.Registry, cfg.Rate > 0)
	bm.workers.Set(int64(cfg.Workers))
	var pace *pacer
	if cfg.Rate > 0 {
		pace = &pacer{start: time.Now(), rate: cfg.Rate}
	}
	tags := &traceTag{hook: cfg.Trace, every: int64(cfg.TraceEvery)}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			blasterWorker(ctx, cfg, bm, id, stop, pace, tags)
		}(i)
	}

	// Ramp (untimed), then snapshot-bracket the measured window: rates
	// and percentiles come from deltas, so the warm-up never reaches them.
	if cfg.Ramp > 0 {
		select {
		case <-time.After(cfg.Ramp):
		case <-ctx.Done():
		}
	}
	snap0 := cfg.Registry.Snapshot()
	t0 := time.Now()
	if cfg.Duration > 0 {
		select {
		case <-time.After(cfg.Duration):
		case <-ctx.Done():
		}
	} else {
		<-ctx.Done() // long-run mode: measure until canceled
	}
	// Stop the workers before the closing snapshot: each observes its
	// latency and then its corrected latency, so an op in flight now
	// lands in both histograms' window, not in one alone.
	close(stop)
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	snap1 := cfg.Registry.Snapshot()
	bm.workers.Set(0)

	r := BlasterReport{
		Workers: cfg.Workers,
		Seconds: elapsed,
		Ops:     make(map[string]BlasterOpStats, len(blasterOps)),
		Cut:     bm.cut.Value(),
	}
	var totalErrs int64
	for _, op := range blasterOps {
		h := snap1.Histograms["latency_"+op].Since(snap0.Histograms["latency_"+op])
		st := BlasterOpStats{
			Count:  snap1.Counters["ops_"+op] - snap0.Counters["ops_"+op],
			Errors: snap1.Counters["errors_"+op] - snap0.Counters["errors_"+op],
			P50us:  h.P50 / 1e3,
			P99us:  h.P99 / 1e3,
			P999us: h.P999 / 1e3,
		}
		r.Ops[op] = st
		r.TotalOps += st.Count
		totalErrs += st.Errors
	}
	if cfg.Rate > 0 {
		r.TargetRate = cfg.Rate
		r.Corrected = make(map[string]BlasterOpStats, len(blasterOps))
		for _, op := range blasterOps {
			h := snap1.Histograms["corrected_"+op].Since(snap0.Histograms["corrected_"+op])
			r.Corrected[op] = BlasterOpStats{
				Count:  r.Ops[op].Count,
				Errors: r.Ops[op].Errors,
				P50us:  h.P50 / 1e3,
				P99us:  h.P99 / 1e3,
				P999us: h.P999 / 1e3,
			}
		}
	}
	r.TraceIDs = tags.traced()
	if elapsed > 0 {
		r.OpsPerSec = float64(r.TotalOps) / elapsed
		r.ReadMBps = float64(snap1.Counters["bytes_read"]-snap0.Counters["bytes_read"]) / float64(util.MB) / elapsed
		r.WriteMBps = float64(snap1.Counters["bytes_written"]-snap0.Counters["bytes_written"]) / float64(util.MB) / elapsed
	}
	if n := r.TotalOps + totalErrs; n > 0 {
		r.ErrorRate = float64(totalErrs) / float64(n)
	}
	return r, nil
}

func blasterFile(i int) string { return fmt.Sprintf("/blaster/f%03d", i) }

// blasterWorker loops the weighted op mix until stopped. Ops run on
// the caller's ctx; shutdown closes stop between ops, so no op is ever
// canceled mid-flight and counted as a spurious error. With a pacer
// the worker waits for each ticket's intended start instead of
// re-issuing immediately, and the corrected histogram measures from
// that intended start.
func blasterWorker(ctx context.Context, cfg BlasterConfig, bm *blasterMetrics, id int, stop <-chan struct{}, pace *pacer, tags *traceTag) {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(id)))
	total := cfg.MixOpen + cfg.MixRead + cfg.MixWrite + cfg.MixAppend
	buf := make([]byte, cfg.IOSize)
	for i := range buf {
		buf[i] = byte('A' + (id+i)%26)
	}
	for {
		var intended time.Time
		if pace != nil {
			intended = pace.intended()
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			case <-time.After(time.Until(intended)):
				// A past intended time fires immediately: the op runs
				// late and its corrected latency includes the backlog.
			}
		} else {
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			default:
			}
		}
		var op string
		switch n := rng.Intn(total); {
		case n < cfg.MixOpen:
			op = "open"
		case n < cfg.MixOpen+cfg.MixRead:
			op = "read"
		case n < cfg.MixOpen+cfg.MixRead+cfg.MixWrite:
			op = "write"
		default:
			op = "append"
		}
		octx := tags.wrap(ctx)
		t0 := time.Now()
		nbytes, err := blasterOp(octx, cfg, rng, id, op, buf)
		if err != nil && ctx.Err() != nil {
			bm.cut.Inc() // the window closed under it
			continue
		}
		if err != nil {
			bm.errs[op].Inc()
			if cfg.OnError != nil {
				cfg.OnError(op, err)
			}
			continue
		}
		bm.lat[op].ObserveSince(t0)
		if pace != nil {
			bm.corr[op].ObserveSince(intended)
		}
		bm.ops[op].Inc()
		switch op {
		case "read":
			bm.bytesR.Add(nbytes)
		case "write", "append":
			bm.bytesW.Add(nbytes)
		}
	}
}

// blasterOp executes one operation and reports the bytes it moved.
func blasterOp(ctx context.Context, cfg BlasterConfig, rng *rand.Rand, id int, op string, buf []byte) (int64, error) {
	fsys := cfg.FS
	switch op {
	case "open":
		r, err := fsys.Open(ctx, blasterFile(rng.Intn(cfg.Files)))
		if err != nil {
			return 0, err
		}
		return 0, r.Close()

	case "read":
		r, err := fsys.Open(ctx, blasterFile(rng.Intn(cfg.Files)))
		if err != nil {
			return 0, err
		}
		defer r.Close()
		// A random in-range offset; files only grow (appends), so the
		// initial size is always a safe bound.
		maxOff := cfg.FileSize - int64(len(buf))
		if maxOff < 0 {
			maxOff = 0
		}
		off := rng.Int63n(maxOff + 1)
		if _, err := r.Seek(off, io.SeekStart); err != nil {
			return 0, err
		}
		n, err := io.ReadFull(r, buf)
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			err = nil // clamped at a concurrent snapshot boundary
		}
		return int64(n), err

	case "write":
		// Whole-file overwrite on a per-worker target: exercises the
		// create/publish path without racing other workers' namespaces.
		w, err := fsys.Create(ctx, fmt.Sprintf("/blaster/w%03d", id), true)
		if err != nil {
			return 0, err
		}
		if _, err := w.Write(buf); err != nil {
			w.Close()
			return 0, err
		}
		return int64(len(buf)), w.Close()

	case "append":
		// Concurrent appends to a shared file — Figure 5's workload.
		w, err := fsys.Append(ctx, blasterFile(rng.Intn(cfg.Files)))
		if err != nil {
			return 0, err
		}
		if _, err := w.Write(buf); err != nil {
			w.Close()
			return 0, err
		}
		return int64(len(buf)), w.Close()
	}
	return 0, fmt.Errorf("blaster: unknown op %q", op)
}
