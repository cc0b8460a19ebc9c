package cluster

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	"blobseer/internal/obs"
)

// TestClusterMetricsEndToEnd drives real I/O through a deployment and
// asserts the /metrics endpoint shows live counters and histograms
// from every layer: version manager, provider manager, namespace,
// data providers, metadata providers, repair, and the client itself.
func TestClusterMetricsEndToEnd(t *testing.T) {
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
	if cl.MetricsURL() == "" {
		t.Fatal("no metrics URL despite MetricsAddr")
	}

	client := cl.NewClient("")
	cl.Obs().Register("client", client.Metrics())
	fsys, err := cl.newBSFS(client)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	w, err := fsys.Create(ctx, "/m/file", true)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 3*4096)
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := fsys.Open(ctx, "/m/file")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(r); err != nil {
		t.Fatal(err)
	}
	r.Close()
	if _, err := cl.RepairEngine().RunOnce(ctx); err != nil {
		t.Fatal(err)
	}

	snap, err := obs.FetchMetrics(cl.MetricsURL())
	if err != nil {
		t.Fatal(err)
	}

	// Every service the write+read+repair pass touched must show
	// nonzero activity (counters or histogram observations).
	active := func(name string) bool {
		s, ok := snap[name]
		if !ok {
			return false
		}
		for _, v := range s.Counters {
			if v > 0 {
				return true
			}
		}
		for _, h := range s.Histograms {
			if h.Count > 0 {
				return true
			}
		}
		return false
	}
	want := []string{"vmanager", "pmanager", "namespace", "provider-0", "meta-0", "repair", "client"}
	n := 0
	for _, svc := range want {
		if active(svc) {
			n++
		} else {
			t.Errorf("service %s shows no activity in /metrics", svc)
		}
	}
	if n < 6 {
		t.Fatalf("only %d of %d services show live metrics", n, len(want))
	}

	// Spot-check cross-layer signals: a write must have moved provider
	// bytes and published through the version manager; the read must
	// have resolved metadata through the client histogram.
	provBytes := int64(0)
	for _, svc := range []string{"provider-0", "provider-1"} {
		provBytes += snap[svc].Counters["bytes_in"]
	}
	if provBytes < int64(len(data)) {
		t.Errorf("providers saw %d bytes in, want >= %d", provBytes, len(data))
	}
	if h := snap["vmanager"].Histograms["latency_commit"]; h.Count == 0 {
		t.Error("vmanager commit latency histogram is empty after a write")
	}
	if h := snap["client"].Histograms["resolve_latency"]; h.Count == 0 {
		t.Error("client resolve latency histogram is empty after a read")
	}
	if snap["namespace"].Counters["ops_create_file"] == 0 {
		t.Error("namespace create_file counter is zero after Create")
	}
	// Every role's server meters each method by name: the write
	// allocated its blocks, chained them to the providers and put its
	// tree nodes to the metadata providers.
	if snap["pmanager"].Counters["ops_allocate"] == 0 {
		t.Error("pmanager ops_allocate is zero after a write")
	}
	summed := func(prefix, metric string) (n int64) {
		for svc, s := range snap {
			if strings.HasPrefix(svc, prefix) {
				n += s.Counters[metric]
			}
		}
		return n
	}
	if summed("provider-", "ops_put_chained") == 0 {
		t.Error("no provider counts an ops_put_chained after a write")
	}
	if summed("meta-", "ops_put_batch") == 0 {
		t.Error("no metadata provider counts an ops_put_batch after a write")
	}
	// The recycled-buffer free lists every frame above came from: the
	// smallest class carried the control calls, all of them recycled.
	pool := snap["wire"].Gauges
	if pool["pool_1k_hits"] == 0 || pool["pool_1k_parked_bytes"] == 0 {
		t.Errorf("wire pool: %d hits, %d bytes parked in the 1 KB class after a write and a read", pool["pool_1k_hits"], pool["pool_1k_parked_bytes"])
	}
	if _, ok := pool["pool_1024k_misses"]; !ok || len(pool) != 3*11 {
		t.Errorf("wire pool exports %d gauges, want hits, misses and parked_bytes for 11 classes up to 1024k", len(pool))
	}
}

// TestHDFSNamenodeMetered: the namenode is named and metered like every
// other role: a traced write counts its add_block calls and records
// server spans named add_block, not m3.
func TestHDFSNamenodeMetered(t *testing.T) {
	h, err := StartHDFS(HDFSConfig{Datanodes: 2, BlockSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	fsys, err := h.NewFS("")
	if err != nil {
		t.Fatal(err)
	}
	ctx, id := obs.WithRoot(context.Background())
	w, err := fsys.Create(ctx, "/m/file", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(bytes.Repeat([]byte("nn"), 3*4096)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	plane := h.node(h.NNAddr).Config().Plane
	if n := plane.Registry().Snapshot().Counters["ops_add_block"]; n < 3 {
		t.Errorf("namenode ops_add_block = %d after a 3-block write, want >= 3", n)
	}
	named := 0
	for _, sp := range plane.Tracer().Spans(id) {
		if sp.Op == "add_block" {
			named++
		}
	}
	if named == 0 {
		t.Errorf("the traced write left no namenode span named add_block: %+v", plane.Tracer().Spans(id))
	}
}
