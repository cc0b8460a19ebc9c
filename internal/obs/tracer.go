package obs

import (
	"context"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// ringSpans is every tracer's span capacity, split across the stripes.
const ringSpans = 4096

// nStripes fans recording across independent rings so concurrent
// handlers on one service don't serialize on a single mutex. Queries
// scan every stripe; recording touches exactly one.
const nStripes = 8

// ring keeps the last len(buf) values put into it, behind its own lock.
type ring[T any] struct {
	mu   sync.Mutex
	buf  []T
	next int
	full bool
}

func (r *ring[T]) put(v T) {
	r.mu.Lock()
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// appendTo appends the retained values keep accepts (every one if keep
// is nil) to out, oldest first.
func (r *ring[T]) appendTo(out []T, keep func(*T) bool) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	start, n := 0, r.next
	if r.full {
		start, n = r.next, len(r.buf)
	}
	for i := 0; i < n; i++ {
		if v := &r.buf[(start+i)%len(r.buf)]; keep == nil || keep(v) {
			out = append(out, *v)
		}
	}
	return out
}

// Root is one slow-root index entry: a sampled root span whose
// duration crossed the tracer's slow threshold. The index answers
// "what was slow lately?" without knowing any trace ID up front.
type Root struct {
	Trace    ID            `json:"trace"`
	Service  string        `json:"service"`
	Op       string        `json:"op"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Err      string        `json:"err,omitempty"`
}

// Tracer records spans for one service into a bounded lock-striped
// ring. The nil *Tracer is a valid no-op, mirroring the nil
// registry: Start on a nil tracer returns ctx unchanged and a zero
// Active whose Finish does nothing, so instrumented code never
// branches on "is tracing on".
type Tracer struct {
	service string

	// sample is the head-sampling threshold: a fresh root is sampled
	// iff a random uint64 is below it (0 = never, MaxUint64 = always).
	sample atomic.Uint64
	// slow (ns, 0 = off) arms slow-root capture: every root is traced
	// and the ones slower than the threshold are indexed in slowRoots.
	slow atomic.Int64

	stripes   [nStripes]ring[Span]
	slowRoots ring[Root]

	recorded atomic.Uint64 // total spans recorded (tests, leak checks)
}

// NewTracer returns a tracer for service retaining the last ringSpans
// spans. Sampling starts fully off: it records only requests that
// arrive carrying a sampled trace context (see SetSampling).
func NewTracer(service string) *Tracer {
	t := &Tracer{service: service}
	for i := range t.stripes {
		t.stripes[i].buf = make([]Span, ringSpans/nStripes)
	}
	t.slowRoots.buf = make([]Root, 64)
	return t
}

// SetSampling configures head sampling and slow-root capture. rate is
// the probability (clamped to [0,1]) that a fresh root — an operation
// with no inbound trace context — starts a sampled trace. slow, when
// positive, traces every root and records the ones that exceed it in
// the slow index, so tail outliers are captured even at rate 0.
// Requests arriving with a trace context are always recorded; the
// sampling decision was the root's to make.
func (t *Tracer) SetSampling(rate float64, slow time.Duration) {
	if t == nil {
		return
	}
	var th uint64
	switch {
	case rate >= 1:
		th = math.MaxUint64
	case rate > 0:
		th = uint64(rate * float64(math.MaxUint64))
	}
	t.sample.Store(th)
	t.slow.Store(int64(slow))
}

func (t *Tracer) sampleHit() bool {
	if t.slow.Load() > 0 {
		return true
	}
	th := t.sample.Load()
	if th == 0 {
		return false
	}
	if th == math.MaxUint64 {
		return true
	}
	return rand.Uint64() < th
}

// Active is an in-flight span handed out by Start. It is a value, not
// a pointer: the zero Active (not recording) costs nothing to carry
// and Finish on it is a no-op.
type Active struct {
	t      *Tracer
	trace  ID
	id     SpanID
	parent SpanID
	op     string
	start  time.Time
}

// Recording reports whether the span will be recorded on Finish.
func (a Active) Recording() bool { return a.t != nil }

// Trace returns the trace this span belongs to (zero if not recording).
func (a Active) Trace() ID { return a.trace }

// Start opens a span for op. If ctx already carries a trace context
// the span joins that trace as a child of the current span; otherwise
// the tracer's head-sampling decides whether a fresh root trace
// begins. When not recording, the original ctx and a zero Active come
// back with no allocation.
func (t *Tracer) Start(ctx context.Context, op string) (context.Context, Active) {
	if t == nil {
		return ctx, Active{}
	}
	tc, ok := FromContext(ctx)
	if !ok {
		if !t.sampleHit() {
			return ctx, Active{}
		}
		tc = Context{Trace: NewID()}
	}
	a := Active{
		t:      t,
		trace:  tc.Trace,
		id:     newSpanID(),
		parent: tc.Span,
		op:     op,
		start:  time.Now(),
	}
	return NewContext(ctx, Context{Trace: tc.Trace, Span: a.id}), a
}

// Finish records the span. A nil err records success; otherwise the
// error message is kept with the generic error code.
func (a Active) Finish(err error) {
	if a.t == nil {
		return
	}
	var code uint16
	msg := ""
	if err != nil {
		code = 1
		msg = err.Error()
	}
	a.FinishCode(code, msg)
}

// FinishCode records the span with an explicit protocol status code —
// the RPC server uses this so a span's error matches what went on the
// wire.
func (a Active) FinishCode(code uint16, msg string) {
	t := a.t
	if t == nil {
		return
	}
	d := time.Since(a.start)
	t.stripes[uint64(a.id)%nStripes].put(Span{
		Trace:    a.trace,
		ID:       a.id,
		Parent:   a.parent,
		Service:  t.service,
		Op:       a.op,
		Start:    a.start,
		Duration: d,
		Code:     code,
		Err:      msg,
	})
	t.recorded.Add(1)
	if a.parent == 0 {
		if s := t.slow.Load(); s > 0 && d >= time.Duration(s) {
			t.slowRoots.put(Root{
				Trace:    a.trace,
				Service:  t.service,
				Op:       a.op,
				Start:    a.start,
				Duration: d,
				Err:      msg,
			})
		}
	}
}

// Spans returns every retained span of trace id, unordered.
func (t *Tracer) Spans(id ID) []Span {
	if t == nil {
		return nil
	}
	var out []Span
	for i := range t.stripes {
		out = t.stripes[i].appendTo(out, func(sp *Span) bool { return sp.Trace == id })
	}
	return out
}

// SlowRoots returns the retained slow-root index entries, most recent
// last.
func (t *Tracer) SlowRoots() []Root {
	if t == nil {
		return nil
	}
	return t.slowRoots.appendTo(nil, nil)
}

// Recorded returns the total number of spans ever recorded — the
// leak-check hook: a workload that should produce no spans must leave
// this at zero.
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	return t.recorded.Load()
}
