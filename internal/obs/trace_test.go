package obs

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestIDRoundTrip(t *testing.T) {
	id := ID{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210}
	s := id.String()
	if len(s) != 32 {
		t.Fatalf("String() = %q, want 32 hex digits", s)
	}
	back, err := ParseID(s)
	if err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Errorf("ParseID(String()) = %v, want %v", back, id)
	}
	for _, bad := range []string{"", "xyz", strings.Repeat("0", 31), strings.Repeat("g", 32)} {
		if _, err := ParseID(bad); err == nil {
			t.Errorf("ParseID(%q) accepted malformed input", bad)
		}
	}

	// JSON must carry the hex string form (u64 halves don't survive a
	// float64 mantissa).
	data, err := json.Marshal(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `"`+s+`"` {
		t.Errorf("json = %s, want %q", data, s)
	}
	var dec ID
	if err := json.Unmarshal(data, &dec); err != nil {
		t.Fatal(err)
	}
	if dec != id {
		t.Errorf("json round-trip = %v, want %v", dec, id)
	}
}

func TestNewIDNonZero(t *testing.T) {
	for i := 0; i < 100; i++ {
		if NewID().IsZero() {
			t.Fatal("NewID returned the zero ID")
		}
	}
}

func TestTracerRecordsOnlyTracedContexts(t *testing.T) {
	tr := NewTracer("svc") // sampling fully off

	// A plain context must not record.
	ctx, sp := tr.Start(context.Background(), "op")
	if sp.Recording() {
		t.Fatal("unsampled Start is recording")
	}
	sp.Finish(nil)
	if _, ok := FromContext(ctx); ok {
		t.Fatal("unsampled Start installed a trace context")
	}
	if tr.Recorded() != 0 {
		t.Fatalf("Recorded() = %d after unsampled op", tr.Recorded())
	}

	// A force-sampled root context must record, and children must nest.
	rctx, id := WithRoot(context.Background())
	cctx, root := tr.Start(rctx, "root")
	if !root.Recording() || root.Trace() != id {
		t.Fatalf("root not recording trace %v", id)
	}
	_, child := tr.Start(cctx, "child")
	child.Finish(nil)
	root.Finish(nil)

	spans := tr.Spans(id)
	if len(spans) != 2 {
		t.Fatalf("Spans(%v) returned %d spans, want 2", id, len(spans))
	}
	var rootSp, childSp *Span
	for i := range spans {
		if spans[i].Op == "root" {
			rootSp = &spans[i]
		} else {
			childSp = &spans[i]
		}
	}
	if rootSp == nil || childSp == nil {
		t.Fatalf("missing root/child span in %+v", spans)
	}
	if rootSp.Parent != 0 {
		t.Errorf("root parent = %v, want 0", rootSp.Parent)
	}
	if childSp.Parent != rootSp.ID {
		t.Errorf("child parent = %v, want %v", childSp.Parent, rootSp.ID)
	}
}

func TestHeadSampling(t *testing.T) {
	always := NewTracer("svc")
	always.SetSampling(1, 0)
	_, sp := always.Start(context.Background(), "op")
	if !sp.Recording() {
		t.Error("rate 1: fresh root not sampled")
	}
	sp.Finish(nil)

	never := NewTracer("svc")
	never.SetSampling(0, 0)
	for i := 0; i < 50; i++ {
		if _, sp := never.Start(context.Background(), "op"); sp.Recording() {
			t.Fatal("rate 0: fresh root sampled")
		}
	}
}

func TestRingBounded(t *testing.T) {
	tr := NewTracer("svc")
	id := NewID()
	ctx := NewContext(context.Background(), Context{Trace: id})
	const total = 3 * ringSpans
	for i := 0; i < total; i++ {
		_, sp := tr.Start(ctx, "op")
		sp.Finish(nil)
	}
	if got := tr.Recorded(); got != total {
		t.Errorf("Recorded() = %d, want %d", got, total)
	}
	// Eviction must hold: the ring keeps at most its capacity.
	if got := len(tr.Spans(id)); got > ringSpans {
		t.Errorf("ring retained %d spans, want <= %d (bounded)", got, ringSpans)
	}
}

func TestSlowRootCapture(t *testing.T) {
	tr := NewTracer("svc")
	tr.SetSampling(0, time.Nanosecond) // slow>0: trace everything, index slow roots

	ctx, root := tr.Start(context.Background(), "read")
	if !root.Recording() {
		t.Fatal("slow-armed tracer did not sample a fresh root")
	}
	_, child := tr.Start(ctx, "resolve")
	time.Sleep(time.Millisecond)
	child.Finish(nil)
	root.Finish(nil)

	roots := tr.SlowRoots()
	if len(roots) != 1 {
		t.Fatalf("SlowRoots() = %d entries, want 1 (children must not be indexed)", len(roots))
	}
	r := roots[0]
	if r.Op != "read" || r.Service != "svc" || r.Trace != root.Trace() {
		t.Errorf("slow root = %+v", r)
	}
	if r.Duration < time.Millisecond {
		t.Errorf("slow root duration = %v, want >= 1ms", r.Duration)
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.Start(context.Background(), "op")
	if sp.Recording() {
		t.Error("nil tracer recording")
	}
	sp.Finish(nil)
	if ctx != context.Background() {
		t.Error("nil tracer modified ctx")
	}
	if tr.Spans(NewID()) != nil || tr.SlowRoots() != nil || tr.Recorded() != 0 {
		t.Error("nil tracer query not empty")
	}
	tr.SetSampling(1, time.Second) // must not panic
}

func TestStitch(t *testing.T) {
	id := NewID()
	t0 := time.Now()
	spans := []Span{
		{Trace: id, ID: 1, Parent: 0, Service: "client", Op: "read", Start: t0},
		{Trace: id, ID: 2, Parent: 1, Service: "vmanager", Op: "latest", Start: t0.Add(time.Millisecond)},
		{Trace: id, ID: 3, Parent: 1, Service: "client", Op: "readat", Start: t0.Add(2 * time.Millisecond)},
		{Trace: id, ID: 4, Parent: 3, Service: "provider-0", Op: "get_block", Start: t0.Add(3 * time.Millisecond)},
		{Trace: id, ID: 2, Parent: 1, Service: "vmanager", Op: "latest", Start: t0.Add(time.Millisecond)}, // duplicate
		{Trace: id, ID: 9, Parent: 7, Service: "meta-0", Op: "get", Start: t0.Add(4 * time.Millisecond)},  // orphan
	}
	roots := Stitch(spans)
	if len(roots) != 2 {
		t.Fatalf("Stitch returned %d roots, want 2 (tree + orphan)", len(roots))
	}
	tree := roots[0]
	if tree.Span.ID != 1 || len(tree.Children) != 2 {
		t.Fatalf("root = span %d with %d children, want span 1 with 2", tree.Span.ID, len(tree.Children))
	}
	// Children sorted by start: latest (t0+1ms) before readat (t0+2ms).
	if tree.Children[0].Span.Op != "latest" || tree.Children[1].Span.Op != "readat" {
		t.Errorf("child order = %s, %s", tree.Children[0].Span.Op, tree.Children[1].Span.Op)
	}
	if n := tree.Children[1].Children; len(n) != 1 || n[0].Span.Op != "get_block" {
		t.Errorf("get_block not nested under readat")
	}
	if !roots[1].Orphan || roots[1].Span.ID != 9 {
		t.Errorf("orphan span not promoted to root: %+v", roots[1])
	}

	out := FormatTree(roots)
	for _, want := range []string{"client.read", "  vmanager.latest", "    provider-0.get_block", "meta-0.get (orphan)"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatTree output missing %q:\n%s", want, out)
		}
	}
}

// The paired benchmarks pin the no-op path: tracing compiled into a hot
// path must cost nothing measurable until a request is sampled. Compare
// allocs/op across the three.
func BenchmarkStartFinishNilTracer(b *testing.B) {
	var tr *Tracer
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := tr.Start(ctx, "op")
		sp.Finish(nil)
	}
}

func BenchmarkStartFinishSamplingOff(b *testing.B) {
	tr := NewTracer("svc")
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := tr.Start(ctx, "op")
		sp.Finish(nil)
	}
}

func BenchmarkStartFinishSampled(b *testing.B) {
	tr := NewTracer("svc")
	tr.SetSampling(1, 0)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := tr.Start(ctx, "op")
		sp.Finish(nil)
	}
}
