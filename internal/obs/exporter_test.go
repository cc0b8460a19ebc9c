package obs

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestExporterHTTP drives the metrics half of an exporter over HTTP:
// /metrics as JSON and as text.
func TestExporterHTTP(t *testing.T) {
	e := NewExporter()
	reg := NewRegistry()
	e.Register("provider-0", reg)
	reg.Counter("puts").Add(3)
	reg.Gauge("live").Set(2)
	reg.Histogram("latency").Observe(int64(5 * time.Millisecond))
	e.Plane("client").Tracer()

	srv := httptest.NewServer(e)
	defer srv.Close()

	snap, err := FetchMetrics(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := snap["client"]; ok {
		t.Error("a plane without a registry shows in /metrics")
	}
	s := snap["provider-0"]
	if s.Counters["puts"] != 3 || s.Gauges["live"] != 2 {
		t.Fatalf("bad snapshot: %+v", s)
	}
	if h := s.Histograms["latency"]; h.Count != 1 || h.P99 <= 0 {
		t.Fatalf("bad histogram export: %+v", h)
	}
	if _, ok := snap["wire"].Gauges["pool_1k_hits"]; !ok {
		t.Errorf("no frame-pool gauges under wire: %+v", snap["wire"])
	}

	text := get(t, srv.URL+"/metrics?format=text", http.StatusOK)
	for _, want := range []string{"provider-0.puts 3", "provider-0.live 2", "provider-0.latency{count} 1"} {
		if !strings.Contains(text, want) {
			t.Errorf("text export missing %q:\n%s", want, text)
		}
	}
}

// TestExporterHTTPRoundTrip drives the trace half of an exporter over
// HTTP: /trace by id and its slow index, and the 400s of a malformed
// query.
func TestExporterHTTPRoundTrip(t *testing.T) {
	e := NewExporter()
	tr := e.Plane("client").Tracer()
	tr.SetSampling(0, time.Nanosecond)
	ctx, root := tr.Start(context.Background(), "write")
	_, child := tr.Start(ctx, "commit")
	time.Sleep(time.Millisecond)
	child.Finish(nil)
	root.Finish(nil)
	id := root.Trace()

	srv := httptest.NewServer(e)
	defer srv.Close()

	spans, err := FetchSpans(srv.URL, id)
	if err != nil {
		t.Fatal(err)
	}
	// Sorted by start: the root began first.
	if len(spans) != 2 || spans[0].Op != "write" || spans[1].Parent != spans[0].ID {
		t.Errorf("fetched spans lost structure: %+v", spans)
	}
	slow, err := FetchSlow(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(slow) != 1 || slow[0].Trace != id {
		t.Errorf("FetchSlow = %+v, want the one slow root", slow)
	}
	// An unknown but well-formed ID returns an empty span set, not an error.
	if none, err := FetchSpans(srv.URL, NewID()); err != nil || len(none) != 0 {
		t.Errorf("unknown trace: %d spans, err %v", len(none), err)
	}

	get(t, srv.URL+"/trace?id=not-a-trace-id", http.StatusBadRequest)
	get(t, srv.URL+"/trace", http.StatusBadRequest)
}

func get(t *testing.T, url string, status int) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != status {
		t.Errorf("GET %s: %s, want %d", url, resp.Status, status)
	}
	return string(body)
}

// TestEndpointURL: every way of naming an exporter reaches the path
// asked for, whatever the host is called.
func TestEndpointURL(t *testing.T) {
	for _, tc := range []struct{ endpoint, path, want string }{
		{"127.0.0.1:9100", "/trace", "http://127.0.0.1:9100/trace"},
		{"http://127.0.0.1:9100", "/metrics", "http://127.0.0.1:9100/metrics"},
		{"http://127.0.0.1:9100/", "/trace", "http://127.0.0.1:9100/trace"},
		{"http://127.0.0.1:9100/metrics", "/trace", "http://127.0.0.1:9100/trace"},
		{"127.0.0.1:9100/trace", "/metrics", "http://127.0.0.1:9100/metrics"},
		{"https://gw.local/blobseer/", "/trace", "https://gw.local/blobseer/trace"},
		{"trace-1:9100", "/trace", "http://trace-1:9100/trace"},
		{"http://tracer.local:9100", "/trace", "http://tracer.local:9100/trace"},
		{"metrics-0:9100", "/metrics", "http://metrics-0:9100/metrics"},
	} {
		got, err := endpointURL(tc.endpoint, tc.path, "")
		if err != nil || got != tc.want {
			t.Errorf("endpointURL(%q, %q) = %q, %v; want %q", tc.endpoint, tc.path, got, err, tc.want)
		}
	}
}

// TestFetchTimesOut: an endpoint that accepts and never answers fails
// the fetch within its timeout instead of hanging the caller.
func TestFetchTimesOut(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close() // held open, never answered
		}
	}()
	done := make(chan error, 1)
	go func() {
		_, err := FetchMetrics(ln.Addr().String())
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("fetch from a silent endpoint succeeded")
		}
	case <-time.After(fetchTimeout + 5*time.Second):
		t.Fatalf("fetch from a silent endpoint still blocked after %s", fetchTimeout+5*time.Second)
	}
}

// TestTextFormatScrape pins the scrape-friendly text contract: type
// hints and cumulative bucket lines closed by +Inf.
func TestTextFormatScrape(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ops").Add(7)
	reg.Gauge("depth").Set(3)
	h := reg.Histogram("lat")
	h.Observe(3)
	h.Observe(100)

	e := NewExporter()
	e.Register("svc", reg)
	srv := httptest.NewServer(e)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	for _, want := range []string{
		"# type svc.ops counter",
		"svc.ops 7",
		"# type svc.depth gauge",
		"svc.depth 3",
		"# type svc.lat histogram",
		"svc.lat.bucket{le=4} 1",      // value 3 lands in (2, 4]
		"svc.lat.bucket{le=128} 2",    // value 100 closes the cumulative run
		"svc.lat.bucket{le=+Inf} 2\n", // always emitted, equals count
		"svc.lat{count} 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text export missing %q:\n%s", want, text)
		}
	}

	// Cumulative bucket lines must be monotonically non-decreasing in
	// the order emitted.
	var prev int64 = -1
	for _, line := range strings.Split(text, "\n") {
		if !strings.Contains(line, ".bucket{le=") || strings.Contains(line, "+Inf") {
			continue
		}
		j := strings.Index(line, "} ")
		c, err := strconv.ParseInt(line[j+2:], 10, 64)
		if err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if c < prev {
			t.Fatalf("bucket counts regressed at %q", line)
		}
		prev = c
	}
}
