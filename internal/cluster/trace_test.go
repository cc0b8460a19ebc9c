package cluster

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"
	"time"

	"blobseer/internal/obs"
)

// findService walks a stitched tree and returns the first node whose
// service name has the given prefix, plus its depth below root.
func findService(n *obs.Node, prefix string, depth int) (*obs.Node, int) {
	if strings.HasPrefix(n.Span.Service, prefix) {
		return n, depth
	}
	for _, c := range n.Children {
		if f, d := findService(c, prefix, depth+1); f != nil {
			return f, d
		}
	}
	return nil, 0
}

// TestClusterTraceEndToEnd is the acceptance path: one traced BSFS-level
// read against a live in-process cluster must stitch into a single tree
// whose root is the client span, with the version manager and data
// provider server spans correctly nested below it, and no metadata DHT
// span: the pin's descriptors name every block's replicas.
func TestClusterTraceEndToEnd(t *testing.T) {
	cl, err := StartBlobSeer(Config{
		DataProviders: 2,
		MetaProviders: 2,
		BlockSize:     4096,
		MetricsAddr:   "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	client := cl.NewClient("")
	ctx := context.Background()
	b, err := client.CreateBlob(ctx, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("trace-me!"), 2048) // > 4 blocks
	v, err := b.Write(ctx, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WaitPublished(ctx, v, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// The traced operation: pin the latest snapshot and read it, under
	// one application-level root span.
	tctx, id := obs.WithRoot(ctx)
	tctx, sp := cl.Obs().Plane("client").Tracer().Start(tctx, "read")
	snap, err := b.Latest(tctx)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := snap.ReadAtContext(tctx, got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	sp.Finish(nil)
	if !bytes.Equal(got, data) {
		t.Fatal("traced read returned wrong bytes")
	}

	spans := cl.Obs().Spans(id)
	if len(spans) < 4 {
		t.Fatalf("exporter retained %d spans of the trace, want >= 4: %+v", len(spans), spans)
	}
	roots := obs.Stitch(spans)
	if len(roots) != 1 {
		t.Fatalf("Stitch produced %d roots, want one connected tree:\n%s",
			len(roots), obs.FormatTree(roots))
	}
	root := roots[0]
	tree := obs.FormatTree(roots)
	if root.Span.Service != "client" || root.Span.Op != "read" {
		t.Errorf("root = %s.%s, want client.read\n%s", root.Span.Service, root.Span.Op, tree)
	}

	// The version manager answers the snapshot pin directly under the
	// client's read span.
	vm, vmDepth := findService(root, "vmanager", 0)
	if vm == nil {
		t.Fatalf("no vmanager span in the tree:\n%s", tree)
	}
	if vm.Span.Op != "latest" || vm.Span.Parent != root.Span.ID || vmDepth != 1 {
		t.Errorf("vmanager span = op %q parent %d depth %d, want latest under the root\n%s",
			vm.Span.Op, vm.Span.Parent, vmDepth, tree)
	}

	// The pin named every block's replicas: the read asks no metadata
	// provider.
	if meta, _ := findService(root, "meta-", 0); meta != nil {
		t.Errorf("a read's trace holds a metadata span %s.%s:\n%s", meta.Span.Service, meta.Span.Op, tree)
	}

	// The data providers serve the block fetches below readat.
	prov, provDepth := findService(root, "provider-", 0)
	if prov == nil {
		t.Fatalf("no provider span in the tree:\n%s", tree)
	}
	if prov.Span.Op != "get_block" || provDepth < 2 {
		t.Errorf("provider span = op %q depth %d, want get_block under readat\n%s",
			prov.Span.Op, provDepth, tree)
	}

	// The same trace must be reachable over HTTP exactly the way
	// `bsfsctl trace` fetches it: via /trace on the metrics listener.
	fetched, err := obs.FetchSpans(cl.MetricsURL(), id)
	if err != nil {
		t.Fatalf("HTTP trace fetch: %v", err)
	}
	if len(fetched) != len(spans) {
		t.Errorf("HTTP fetch returned %d spans, exporter holds %d", len(fetched), len(spans))
	}
}

// TestClusterTraceSurvivesVMKillRestart: a vmanager shard killed and
// restarted keeps its original tracer, so spans recorded after recovery
// still join client traces — and the retry loop that rides out the
// outage carries the trace context to whichever incarnation answers.
func TestClusterTraceSurvivesVMKillRestart(t *testing.T) {
	cl, err := StartBlobSeer(Config{
		DataProviders: 2,
		MetaProviders: 2,
		BlockSize:     4096,
		DataDir:       t.TempDir(),
		CallTimeout:   2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	client := cl.NewClient("")
	ctx := context.Background()
	b, err := client.CreateBlob(ctx, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	v, err := b.Write(ctx, 0, bytes.Repeat([]byte("x"), 4096))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WaitPublished(ctx, v, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	cl.KillVMShard(0)
	if err := cl.RestartVMShard(0); err != nil {
		t.Fatal(err)
	}

	// The first traced call after the restart may land on a severed
	// pooled connection; retry like a real client until one incarnation
	// answers. The trace ID rides the context, not the connection.
	tctx, id := obs.WithRoot(ctx)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, _, err = client.Latest(tctx, b.ID()); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("Latest never succeeded after restart: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	spans := cl.Obs().Spans(id)
	var vmSpan *obs.Span
	for i := range spans {
		if strings.HasPrefix(spans[i].Service, "vmanager") && spans[i].Op == "latest" {
			vmSpan = &spans[i]
		}
	}
	if vmSpan == nil {
		t.Fatalf("restarted vmanager recorded no span for the traced call: %+v", spans)
	}
	if vmSpan.Trace != id {
		t.Errorf("vmanager span trace = %v, want %v", vmSpan.Trace, id)
	}
}

// TestClusterNoSpanLeakUntraced: with sampling off (the default
// Config), a full write/read workload must record zero spans anywhere —
// the tracing plane is compiled in but strictly pay-for-use.
func TestClusterNoSpanLeakUntraced(t *testing.T) {
	cl, err := StartBlobSeer(Config{
		DataProviders: 2,
		MetaProviders: 2,
		BlockSize:     4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	client := cl.NewClient("")
	ctx := context.Background()
	b, err := client.CreateBlob(ctx, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("y"), 2*4096)
	v, err := b.Write(ctx, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WaitPublished(ctx, v, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	snap, err := b.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.ReadAt(make([]byte, len(data)), 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}

	if n := cl.Obs().Plane("client").Tracer().Recorded(); n != 0 {
		t.Errorf("client tracer recorded %d spans for an untraced workload", n)
	}
	for _, p := range cl.Obs().Planes() {
		if n := p.Tracer().Recorded(); n != 0 {
			t.Errorf("%s tracer recorded %d spans for an untraced workload", p.Name(), n)
		}
	}
}

// TestClusterTraceSampling: Config.TraceSample=1 samples organically —
// no explicit WithRoot — and the slow-root index surfaces the roots.
func TestClusterTraceSampling(t *testing.T) {
	cl, err := StartBlobSeer(Config{
		DataProviders: 2,
		MetaProviders: 2,
		BlockSize:     4096,
		TraceSample:   1,
		TraceSlow:     time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	client := cl.NewClient("")
	ctx := context.Background()
	b, err := client.CreateBlob(ctx, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	v, err := b.Write(ctx, 0, bytes.Repeat([]byte("z"), 4096))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WaitPublished(ctx, v, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	if n := cl.Obs().Plane("client").Tracer().Recorded(); n == 0 {
		t.Error("TraceSample=1 recorded no client spans")
	}
	roots := cl.Obs().SlowRoots()
	if len(roots) == 0 {
		t.Fatal("TraceSlow recorded no slow roots")
	}
	// Only the client originates roots; daemon spans always have a
	// parent and must never pollute the slow index.
	for _, r := range roots {
		if r.Service != "client" {
			t.Errorf("slow index holds non-root span %s.%s", r.Service, r.Op)
		}
	}
}
