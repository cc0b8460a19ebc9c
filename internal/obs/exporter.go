package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blobseer/internal/wire"
)

// Plane is one named service's observability: the registry its metrics
// live in and the tracer that records its spans. A daemon's service
// builds its own registry and hands it over with Use; a restarted
// daemon is handed its predecessor's plane, so its spans from before
// and after the outage stitch into one tree.
type Plane struct {
	name   string
	tracer *Tracer // nil for a metrics-only plane
	reg    atomic.Pointer[Registry]
}

// NewPlane returns the plane of service name: a tracer that records
// only requests arriving with a sampled trace context, and no registry
// until Use.
func NewPlane(name string) *Plane { return &Plane{name: name, tracer: NewTracer(name)} }

// Name returns the service name the plane is exported under.
func (p *Plane) Name() string { return p.name }

// Tracer returns the plane's tracer (nil for a metrics-only plane).
func (p *Plane) Tracer() *Tracer { return p.tracer }

// Registry returns the plane's registry (nil before Use).
func (p *Plane) Registry() *Registry { return p.reg.Load() }

// Use makes reg the plane's registry, replacing any earlier one.
func (p *Plane) Use(reg *Registry) { p.reg.Store(reg) }

// Exporter serves a process's planes by service name: /metrics renders
// every registry (JSON, or line-oriented text with ?format=text), and
// /trace queries every tracer (?id=<trace id> or ?slow=1). A daemon
// serves its own plane; an in-process cluster puts every daemon and
// client of the deployment into one exporter, so one endpoint shows the
// whole of it.
type Exporter struct {
	mu     sync.Mutex
	planes map[string]*Plane
}

// NewExporter returns an exporter holding planes plus the process's
// recycled-buffer free lists under "wire": one gauge triple per size
// class, shared by data and control frames.
func NewExporter(planes ...*Plane) *Exporter {
	e := &Exporter{planes: make(map[string]*Plane)}
	for _, p := range planes {
		e.planes[p.name] = p
	}
	pool := NewRegistry()
	for c, st := range wire.PoolStats() {
		name := fmt.Sprintf("pool_%dk_", st.Size>>10)
		pool.GaugeFunc(name+"hits", func() int64 { return wire.PoolStats()[c].Hits })
		pool.GaugeFunc(name+"misses", func() int64 { return wire.PoolStats()[c].Misses })
		pool.GaugeFunc(name+"parked_bytes", func() int64 { return wire.PoolStats()[c].ParkedBytes })
	}
	e.Register("wire", pool)
	return e
}

// Plane returns the named service's plane, creating a traced one on
// first use.
func (e *Exporter) Plane(name string) *Plane {
	e.mu.Lock()
	defer e.mu.Unlock()
	p, ok := e.planes[name]
	if !ok {
		p = NewPlane(name)
		e.planes[name] = p
	}
	return p
}

// Register makes reg the named plane's registry; a name without a plane
// gets a metrics-only one.
func (e *Exporter) Register(name string, reg *Registry) {
	e.mu.Lock()
	p, ok := e.planes[name]
	if !ok {
		p = &Plane{name: name}
		e.planes[name] = p
	}
	e.mu.Unlock()
	p.Use(reg)
}

// Planes returns every plane, ordered by name.
func (e *Exporter) Planes() []*Plane {
	e.mu.Lock()
	defer e.mu.Unlock()
	return slices.SortedFunc(maps.Values(e.planes), func(a, b *Plane) int { return strings.Compare(a.name, b.name) })
}

// Snapshot captures every plane's registry by service name.
func (e *Exporter) Snapshot() map[string]Snapshot {
	out := make(map[string]Snapshot)
	for _, p := range e.Planes() {
		if reg := p.Registry(); reg != nil {
			out[p.name] = reg.Snapshot()
		}
	}
	return out
}

// Spans returns every retained span of trace id across all planes,
// sorted by start time.
func (e *Exporter) Spans(id ID) []Span {
	var out []Span
	for _, p := range e.Planes() {
		out = append(out, p.tracer.Spans(id)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// SlowRoots returns the slow-root entries of all planes, sorted by
// start time.
func (e *Exporter) SlowRoots() []Root {
	var out []Root
	for _, p := range e.Planes() {
		out = append(out, p.tracer.SlowRoots()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Serve answers HTTP on addr ("127.0.0.1:0" picks a port). It returns
// the bound address and a function that stops serving.
func (e *Exporter) Serve(addr string) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: e}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}

// spansResponse and slowResponse are the wire shapes of /trace queries.
type spansResponse struct {
	Spans []Span `json:"spans"`
}

type slowResponse struct {
	Slow []Root `json:"slow"`
}

// ServeHTTP answers /trace queries at /trace and renders the metrics
// on every other path.
func (e *Exporter) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.URL.Path == "/trace" {
		e.serveTrace(w, req)
		return
	}
	e.serveMetrics(w, req)
}

// serveTrace answers ?id=<32-hex> with that trace's retained spans and
// ?slow=1 with the slow-root index.
func (e *Exporter) serveTrace(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	var resp any
	switch {
	case q.Get("slow") != "":
		resp = slowResponse{Slow: e.SlowRoots()}
	case q.Get("id") == "":
		http.Error(w, "trace: want ?id=<32-hex-digit trace id> or ?slow=1", http.StatusBadRequest)
		return
	default:
		id, err := ParseID(q.Get("id"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp = spansResponse{Spans: e.Spans(id)}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// serveMetrics renders every registry: JSON by default, scrape-friendly
// line-oriented text with ?format=text. The text format carries `# type`
// hints and cumulative histogram bucket lines (service.metric.bucket{le=N}
// count, closed by le=+Inf), so external collectors can ingest it
// without the JSON path and difference two scrapes for a window.
func (e *Exporter) serveMetrics(w http.ResponseWriter, req *http.Request) {
	snap := e.Snapshot()
	if req.URL.Query().Get("format") != "text" {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(snap)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, svc := range sortedKeys(snap) {
		s := snap[svc]
		for _, k := range sortedKeys(s.Counters) {
			fmt.Fprintf(w, "# type %s.%s counter\n", svc, k)
			fmt.Fprintf(w, "%s.%s %d\n", svc, k, s.Counters[k])
		}
		for _, k := range sortedKeys(s.Gauges) {
			fmt.Fprintf(w, "# type %s.%s gauge\n", svc, k)
			fmt.Fprintf(w, "%s.%s %d\n", svc, k, s.Gauges[k])
		}
		for _, k := range sortedKeys(s.Histograms) {
			h := s.Histograms[k]
			fmt.Fprintf(w, "# type %s.%s histogram\n", svc, k)
			for _, b := range h.Buckets {
				fmt.Fprintf(w, "%s.%s.bucket{le=%d} %d\n", svc, k, b.Le, b.Count)
			}
			fmt.Fprintf(w, "%s.%s.bucket{le=+Inf} %d\n", svc, k, h.Count)
			fmt.Fprintf(w, "%s.%s{count} %d\n", svc, k, h.Count)
			fmt.Fprintf(w, "%s.%s{sum} %d\n", svc, k, h.Sum)
			fmt.Fprintf(w, "%s.%s{p50} %.0f\n", svc, k, h.P50)
			fmt.Fprintf(w, "%s.%s{p99} %.0f\n", svc, k, h.P99)
			fmt.Fprintf(w, "%s.%s{p999} %.0f\n", svc, k, h.P999)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string { return slices.Sorted(maps.Keys(m)) }

// fetchClient carries every query of an exporter: an endpoint that
// accepts and never answers fails after fetchTimeout instead of hanging
// `bsfsctl top` or `bsfsctl trace`.
var fetchClient = &http.Client{Timeout: fetchTimeout}

const fetchTimeout = 5 * time.Second

// endpointURL turns an endpoint — "host:port" or a URL, with or without
// an exporter path — into the URL of path ("/metrics" or "/trace") with
// query. A trailing /metrics or /trace is replaced; any other path is
// kept as a prefix, for an exporter mounted below one.
func endpointURL(endpoint, path, query string) (string, error) {
	if !strings.Contains(endpoint, "://") {
		endpoint = "http://" + endpoint
	}
	u, err := url.Parse(endpoint)
	if err != nil {
		return "", err
	}
	base := strings.TrimSuffix(u.Path, "/")
	base = strings.TrimSuffix(strings.TrimSuffix(base, "/metrics"), "/trace")
	u.Path, u.RawQuery = base+path, query
	return u.String(), nil
}

// fetch queries one endpoint and decodes its JSON answer into out.
func fetch(endpoint, path, query string, out any) error {
	u, err := endpointURL(endpoint, path, query)
	if err != nil {
		return err
	}
	resp, err := fetchClient.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("obs: %s: %s: %s", u, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// FetchMetrics scrapes an endpoint's registries, by service name.
func FetchMetrics(endpoint string) (map[string]Snapshot, error) {
	var out map[string]Snapshot
	if err := fetch(endpoint, "/metrics", "", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// FetchSpans asks an endpoint for the spans it retains of trace id.
func FetchSpans(endpoint string, id ID) ([]Span, error) {
	var r spansResponse
	if err := fetch(endpoint, "/trace", "id="+id.String(), &r); err != nil {
		return nil, err
	}
	return r.Spans, nil
}

// FetchSlow asks an endpoint for its slow-root index.
func FetchSlow(endpoint string) ([]Root, error) {
	var r slowResponse
	if err := fetch(endpoint, "/trace", "slow=1", &r); err != nil {
		return nil, err
	}
	return r.Slow, nil
}
