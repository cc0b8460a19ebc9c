// Command benchmark is the repository's benchmark: four closed-loop
// workloads against the real BlobSeer daemons on loopback TCP, with
// correctness checks, end-to-end metrics, and a traced run that gives
// the per-layer numbers. BENCHMARK.json at the repository root is its
// contract; README.md in this directory explains every choice.
//
//	bash benchmark/run.sh --workload seq_write --seed 1 --seconds 28 --trace 0
//
// runs one workload and prints one JSON result as its last line. With
// no --workload, every workload runs, first end to end and then traced.
// A run's work is fixed by --seconds, which is also the wall-clock
// ceiling under which a slow machine measures fewer slices, and an
// end-to-end run measures it in four processes of its own, one after
// another.
// -check-repeat is the acceptance check: two sets of runs of the same
// code must agree within the bounds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool
	outDir   string
	segment  int           // >= 0: this process measures that segment of an end-to-end run
	budget   time.Duration // a segment's share of the run's wall-clock ceiling; 0 is none
}

// processStart is when this process began: a segment's budget covers
// everything it does, generating its inputs included.
var processStart = time.Now()

func main() {
	var o options
	var trace int
	var checkRepeat bool
	flag.StringVar(&o.workload, "workload", "", "one of seq_write, seq_read, append_shared, mixed_rw; empty runs all four, each in its own process")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", nominalSeconds, "length of an end-to-end run: it scales the slice count, never the slice size, and is the wall-clock ceiling past which no further slice starts")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "smoke scale: one slice at 1/16 size")
	flag.StringVar(&o.outDir, "out", "benchmark/out", "directory for traces and scratch stores")
	flag.BoolVar(&checkRepeat, "check-repeat", false, "run two sets of ten end-to-end runs per workload and fail unless they agree within BENCHMARK.json's bounds")
	flag.IntVar(&o.segment, "segment", -1, "internal: measure one segment of an end-to-end run and print it as JSON (a run starts its segments itself)")
	flag.DurationVar(&o.budget, "budget", 0, "internal: the segment's share of the run's wall-clock ceiling")
	flag.Parse()
	o.trace = trace != 0

	var err error
	switch {
	case checkRepeat:
		err = checkRepeatSets(o)
	case o.workload == "":
		err = runAll(o)
	case o.segment >= 0:
		err = printSegment(context.Background(), o)
	default:
		var rep *report
		if rep, err = runWorkload(context.Background(), o); err == nil {
			err = rep.printResult()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// clientCount is the closed loop's width: min(nproc, 4) goroutines in
// this one process, no other load generator.
func clientCount() int { return min(runtime.NumCPU(), 4) }

// Fixed run shape.
const (
	// nominalSeconds is BENCHMARK.json's run_seconds: at --seconds 28 a
	// run measures its workload's full slice count, unless 28 s of wall
	// clock run out first.
	nominalSeconds = 28
	// segments is how many measuring processes an end-to-end run is
	// split over. Process age is state like any other: every block
	// upload arms a one-minute reaper timer in the provider that pins
	// the upload until it fires, so within a process's first minute
	// each GC cycle marks more than the last and throughput falls with
	// every slice (17% over append_shared's 32). A fresh deployment does
	// not reset that; a fresh process does.
	segments     = 4
	tracedSlices = 4  // slices in each pass of a traced run
	warmSlice    = -2 // index of a process's full-size warm-up slice (-1 is a deployment's 1/8-size one)
	rssLimitMB   = 1536
	// wallLimit is what a run may take in all, re-measurements included
	// (five measurements at the nominal length): the driver stops a run
	// at 180 s.
	wallLimit = 150 * time.Second
)

// slicesPerSegment turns --seconds into work: the workload's slice
// count scaled by seconds/nominalSeconds and split evenly over the
// segments. The counts are sized to take about four fifths of --seconds
// on the 2-core box they were chosen on, so there the same --seconds is
// the same work on every commit and how fast the code under test runs
// plays no part. --seconds is also a ceiling on the wall clock: a
// machine (or a bad ten minutes of a shared one) several times slower
// measures fewer slices of the same size, not a longer run.
func slicesPerSegment(w workload, seconds float64) int {
	return max(1, int(math.Round(float64(w.slices())*seconds/nominalSeconds/segments)))
}

// runWorkload is one workload, end to end or traced.
func runWorkload(ctx context.Context, o options) (*report, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadOrder)
	}
	rep := newReport(o.trace)
	fmt.Printf("workload %s  seed %d  clients %d  trace %v  quick %v\n", o.workload, o.seed, clientCount(), o.trace, o.quick)
	if o.workload == "mixed_rw" {
		sz := o.sizes()
		fmt.Printf("mixed_rw: client node cache %d entries under a %d-node tree\n", mixedCacheSize, 2*sz.mixedBlocks-1)
	}
	if !o.trace {
		return rep, endToEnd(ctx, o, w, rep)
	}
	r, err := newRunner(o, w)
	if err != nil {
		return nil, err
	}
	defer r.close()
	return rep, r.traced(ctx, rep)
}

func (o options) sizes() sizes {
	if o.quick {
		return quickSizes
	}
	return fullSizes
}

// runner measures one workload in this process.
type runner struct {
	o      options
	w      workload
	e      *env
	outDir string
	nDirs  int
}

func newRunner(o options, w workload) (*runner, error) {
	out, err := filepath.Abs(o.outDir)
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(out, fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	return &runner{o: o, w: w, e: newEnv(o.seed, clientCount(), o.sizes(), tmp), outDir: out}, nil
}

func (r *runner) close() { os.RemoveAll(r.e.tmpDir) }

// pass is a series of measured slices and the set-ups behind them.
type pass struct {
	m      *meter    // the slices
	setup  *meter    // what nobody measures: warm-ups, pre-population
	setupS []float64 // every set-up's duration
}

// start brings up a deployment and runs the workload's setup on it,
// timing both: that is one sample of setup_s.
func (r *runner) start(ctx context.Context, s *seams, p *pass) (*stack, error) {
	r.nDirs++
	scratch := filepath.Join(r.e.tmpDir, fmt.Sprintf("d%d", r.nDirs))
	t0 := time.Now()
	st, err := startStack(r.w.config(r.e, scratch), s)
	if err != nil {
		return nil, err
	}
	st.scratch = scratch
	p.setup.st = st
	if err := r.w.setup(ctx, r.e, st, p.setup); err != nil {
		r.finish(st)
		return nil, fmt.Errorf("%s setup: %w", r.o.workload, err)
	}
	p.setupS = append(p.setupS, time.Since(t0).Seconds())
	return st, nil
}

func (r *runner) finish(st *stack) {
	st.stop()
	os.RemoveAll(st.scratch)
	settle()
}

// run measures slices first .. first+n-1, after one full-size slice
// that nobody measures: the process's own warm-up, in which the heap
// grows to its working size and every lazy start happens.
//
// A workload that writes gets a fresh deployment for every slice, so
// no service-side state (blob histories, placement counters, pooled
// connections) carries from one slice to the next, and every slice
// adds a setup_s sample. A read-only workload keeps the deployment its
// set-up populated.
//
// budget, when set, is the wall clock this process may use, counted
// from its start: after the first measured slice, a slice starts only
// if one as long as the last would still end inside it.
func (r *runner) run(ctx context.Context, s *seams, first, n int, budget time.Duration) (*pass, error) {
	p := &pass{m: newMeter(s), setup: newMeter(s)}
	var st *stack
	defer func() {
		if st != nil {
			r.finish(st)
		}
	}()
	var last time.Duration
	for i := -1; i < n; i++ {
		if i > 0 && budget > 0 && time.Since(processStart)+last > budget {
			break
		}
		t0 := time.Now()
		m, index := p.m, first+i
		if i < 0 {
			if r.o.quick {
				continue
			}
			m, index = p.setup, warmSlice
		}
		switch {
		case st == nil, r.w.writes():
			if st != nil {
				r.finish(st)
				st = nil
			}
			var err error
			if st, err = r.start(ctx, s, p); err != nil {
				return nil, err
			}
		default:
			settle()
		}
		m.st = st
		if err := r.w.slice(ctx, r.e, st, m, index); err != nil {
			return nil, fmt.Errorf("%s slice %d: %w", r.o.workload, index, err)
		}
		last = time.Since(t0)
	}
	return p, nil
}

// segment is what one measuring process hands back to its run.
type segment struct {
	Slices    []sliceStats `json:"slices"`
	SetupS    []float64    `json:"setup_s"`
	Attempted int64        `json:"attempted"`
	Failed    int64        `json:"failed"`
	RSSPeakMB float64      `json:"rss_peak_mb"`
}

// measureSegment measures segment k of an end-to-end run, per slices
// long, in this process: on the unmetered client, with nothing of the
// harness in the path but a clock.
func measureSegment(ctx context.Context, o options, w workload, k, per int) (*segment, error) {
	r, err := newRunner(o, w)
	if err != nil {
		return nil, err
	}
	defer r.close()
	p, err := r.run(ctx, nil, k*per, per, o.budget)
	if err != nil {
		return nil, err
	}
	for _, name := range slices.Sorted(maps.Keys(p.m.samples)) {
		ms := p.m.samples[name]
		t, pct := tail(ms)
		fmt.Printf("segment %d call %-20s p50 %10.4f ms  p%.2f %10.4f ms  n=%d\n", k, name, median(ms), pct, t, len(ms))
	}
	fmt.Printf("segment %d slice MB/s:", k)
	for _, v := range p.m.mainMBs() {
		fmt.Printf(" %.0f", v)
	}
	fmt.Println()
	return &segment{
		Slices:    p.m.slices,
		SetupS:    p.setupS,
		Attempted: p.m.attempted.Load() + p.setup.attempted.Load(),
		Failed:    p.m.failed.Load() + p.setup.failed.Load(),
		RSSPeakMB: rssPeakMB(),
	}, nil
}

// printSegment is a segment process's whole life.
func printSegment(ctx context.Context, o options) error {
	w, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	seg, err := measureSegment(ctx, o, w, o.segment, slicesPerSegment(w, o.seconds))
	if err != nil {
		return err
	}
	line, err := json.Marshal(seg)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", line)
	return err
}

// endToEnd measures the metrics a user sees: the run's segments one
// after another, each in a process of its own, and every number a
// median over the slices of all of them. --seconds is the ceiling on
// the wall clock of one measurement, shared out over the segments still
// to run. A run the steady-state guard finds invalid is measured again,
// as a person would, while another measurement fits under wallLimit;
// still invalid then is the answer.
func endToEnd(ctx context.Context, o options, w workload, rep *report) error {
	per, n := slicesPerSegment(w, o.seconds), segments
	ceiling := time.Duration(o.seconds * float64(time.Second))
	if o.quick {
		per, n, ceiling = 1, 1, 0
	}
	for attempt := 1; ; attempt++ {
		start := time.Now()
		m := newMeter(nil)
		var segs [][]sliceStats
		var setupS []float64
		var rss float64
		for k := 0; k < n; k++ {
			var seg *segment
			var err error
			if o.quick {
				seg, err = measureSegment(ctx, o, w, k, per) // the smoke test has no binary to start again
			} else {
				seg, err = segmentChild(o, k, (ceiling-time.Since(start))/time.Duration(n-k))
			}
			if err != nil {
				return err
			}
			segs = append(segs, seg.Slices)
			m.slices = append(m.slices, seg.Slices...)
			setupS = append(setupS, seg.SetupS...)
			rss = max(rss, seg.RSSPeakMB)
			rep.attempted += seg.Attempted
			rep.failed += seg.Failed
		}

		var invalid error
		ok, first, last := steady(segs)
		switch {
		case !ok:
			invalid = fmt.Errorf("throughput changes with process age: %.1f MB/s in the first third of a process's slices, %.1f in the last", first, last)
		case rss > rssLimitMB:
			invalid = fmt.Errorf("resident set peaked at %.0f MB, past the %d MB where first-touch memory turns expensive", rss, rssLimitMB)
		}
		fmt.Printf("slices %d of %d in %d processes, %.1f s under a %.0f s ceiling  steady_state %v (first third of a process's slices %.1f MB/s, last third %.1f MB/s; rss_peak %.0f of %d MB)\n",
			len(m.slices), per*n, n, time.Since(start).Seconds(), ceiling.Seconds(), invalid == nil, first, last, rss, rssLimitMB)
		if invalid == nil {
			allocB, allocN := m.allocTotals()
			rep.setSeries("primary_mb_s", m.primaryMBs())
			rep.setSeries("secondary_mb_s", m.secondaryMBs())
			rep.setSeries("cpu_s_per_gb", m.cpuPerGB())
			rep.set("alloc_bytes_per_payload_byte", allocB)
			rep.set("allocs_per_mb", allocN)
			rep.set("rss_peak_mb", rss)
			rep.setSeries("setup_s", setupS)
			return nil
		}
		if time.Since(processStart)+ceiling+ceiling/4 > wallLimit {
			return fmt.Errorf("%s: run invalid, not slow, %d times over: %w", o.workload, attempt, invalid)
		}
		fmt.Fprintf(os.Stderr, "%s (seed %d): run invalid, not slow: %v; measuring again\n", o.workload, o.seed, invalid)
	}
}

// traced gives the per-layer numbers: a short unmetered pass, the same
// pass again on a client stack built with a decorator at every seam,
// then the isolated probes. No end-to-end metric comes from here.
func (r *runner) traced(ctx context.Context, rep *report) error {
	n := tracedSlices
	probes := fullProbes
	if r.o.quick {
		n, probes = 1, quickProbes
	}
	plain, err := r.run(ctx, nil, 0, n, 0)
	if err != nil {
		return err
	}
	s := newSeams()
	seamed, err := r.run(ctx, s, 0, n, 0)
	if err != nil {
		return err
	}
	for _, p := range []*pass{plain, seamed} {
		for _, m := range []*meter{p.setup, p.m} {
			rep.attempted += m.attempted.Load()
			rep.failed += m.failed.Load()
		}
	}

	tracePath := filepath.Join(r.outDir, "trace_"+r.o.workload+".jsonl")
	if err := s.rec.writeTrace(tracePath); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("trace: %d spans in %s\n", len(s.rec.done), tracePath)
	fmt.Printf("%-22s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, t := range s.rec.selfTimes() {
		fmt.Printf("%-22s %8d %12.1f %12.1f\n", t.name, t.count, t.total.Seconds()*1e3, t.self.Seconds()*1e3)
	}

	// S and K: counter deltas over the traced pass's main phases.
	lc, payload, ops := seamed.m.layerTotals()
	perByte := func(v int64) float64 { return ratio(float64(v), float64(payload)) }
	perGB := func(ns int64) float64 { return ratio(float64(ns)/1e9, float64(payload)/1e9) }
	perOp := func(v int64) float64 { return ratio(float64(v), float64(ops)) }
	fmt.Printf("per-op ratios are per %s; %d of them, %d payload bytes, in %d traced slices\n", r.w.unit(), ops, payload, len(seamed.m.slices))
	rep.set("rpc.client_tx_bytes_per_payload_byte", perByte(lc[cConnTxBytes]))
	rep.set("rpc.conn_write_s_per_gb", perGB(lc[cConnWriteNs]))
	rep.set("provider.bytes_in_per_payload_byte", perByte(lc[cProvBytesIn]))
	rep.set("provider.bytes_out_per_payload_byte", perByte(lc[cProvBytesOut]))
	rep.set("store.busy_s_per_gb", perGB(lc[cStoreBusyNs]))
	rep.set("mdtree.store_busy_s_per_gb", perGB(lc[cMetaBusyNs]))
	rep.set("mdtree.nodes_written_per_op", perOp(lc[cMetaNodesPut]))
	rep.set("dht.get_batch_roundtrips_per_op", perOp(lc[cMetaReads]))
	rep.set("vmanager.rpcs_per_op", perOp(lc[cVMOps]))
	fmt.Printf("client tx bytes by service, whole traced pass:")
	for _, svc := range slices.Sorted(maps.Keys(s.conns)) {
		fmt.Printf("  %s %d", svc, s.conns[svc].bytes.Load())
	}
	fmt.Println()
	sm := seamed.m
	rep.set("stream.readahead_hit_ratio", ratio(float64(sm.prefetchHits), float64(sm.prefetched)))
	rep.set("core.meta_cache_hit_ratio", ratio(float64(sm.cacheHits), float64(sm.cacheHits+sm.cacheMisses)))
	rep.set("core.chain_fallbacks", float64(sm.chainFallbacks))
	rep.set("trace.overhead_ratio", ratio(median(plain.m.mainMBs()), median(sm.mainMBs())))

	// Per-call latencies come from the unmetered pass; a call the
	// workload only makes in set-up (seq_read's populate) from there.
	calls := func(name string) []float64 {
		if v := plain.m.samples[name]; len(v) > 0 {
			return v
		}
		return plain.setup.samples[name]
	}
	for _, call := range []string{"append", "write", "readat"} {
		ms := calls(call)
		t, pct := tail(ms)
		rep.set("core."+call+"_p50_ms", median(ms))
		rep.set("core."+call+"_tail_ms", t)
		fmt.Printf("core.%s_tail_ms is p%.2f of %d calls\n", call, pct, len(ms))
	}
	t, pct := tail(calls("write_call"))
	rep.set("stream.write_call_tail_us", t*1e3)
	fmt.Printf("stream.write_call_tail_us is p%.2f of %d calls\n", pct, len(calls("write_call")))
	rep.set("namespace.create_ms", median(calls("create")))
	rep.set("namespace.open_ms", median(calls("open")))

	if r.o.workload != probeWorkload {
		fmt.Printf("probes: not run here; they do not depend on the workload and run once, with --workload %s --trace 1 (their %d metrics read 0 in this result)\n", probeWorkload, len(probeMetrics))
		for _, d := range probeMetrics {
			rep.values[d.name] = 0
		}
		return nil
	}
	return runProbes(ctx, r.e, probes, rep)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report is what a run prints: every metric of its mode by name with
// its unit, then the one-line JSON result the driver reads.
type report struct {
	defs      []metricDef
	values    map[string]float64
	attempted int64
	failed    int64
}

func newReport(trace bool) *report {
	defs := endToEndMetrics
	if trace {
		defs = perLayerMetrics
	}
	return &report{defs: defs, values: make(map[string]float64)}
}

func (r *report) set(name string, v float64) {
	for _, d := range r.defs {
		if d.name == name {
			r.values[name] = v
			fmt.Printf("metric %-44s %14.6f %s\n", name, v, d.unit)
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared for this mode")
}

// setSeries reports a per-slice (or per-set-up) series as its median,
// with quartiles and count alongside.
func (r *report) setSeries(name string, vs []float64) {
	q1, _, q3 := quartiles(vs)
	r.set(name, median(vs))
	fmt.Printf("       %-44s q1 %.6f  q3 %.6f  n=%d\n", "", q1, q3, len(vs))
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func (r *report) printResult() error {
	res := resultJSON{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricJSON)}
	for _, d := range r.defs {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was never measured", d.name)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	fmt.Printf("failed_op_ratio %d/%d\n", r.failed, r.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", line)
	return err
}
