package metrics

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
)

// Exporter serves one or more named registries over HTTP. Every daemon
// role registers the registries of the services it hosts ("vmanager",
// "provider-0", ...) and mounts the exporter at /metrics; an in-proc
// cluster registers every service into one exporter so a single scrape
// shows the whole deployment.
type Exporter struct {
	mu   sync.Mutex
	regs map[string]*Registry
}

// NewExporter returns an empty exporter.
func NewExporter() *Exporter {
	return &Exporter{regs: make(map[string]*Registry)}
}

// Register adds (or replaces) a named registry. Nil registries are
// ignored so callers can wire optional metrics unconditionally.
func (e *Exporter) Register(name string, r *Registry) {
	if e == nil || r == nil {
		return
	}
	e.mu.Lock()
	e.regs[name] = r
	e.mu.Unlock()
}

// Snapshot captures every registered registry.
func (e *Exporter) Snapshot() map[string]Snapshot {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	regs := make(map[string]*Registry, len(e.regs))
	for k, v := range e.regs {
		regs[k] = v
	}
	e.mu.Unlock()
	out := make(map[string]Snapshot, len(regs))
	for k, v := range regs {
		out[k] = v.Snapshot()
	}
	return out
}

// ServeHTTP renders the exporter state: JSON by default, scrape-
// friendly line-oriented text with ?format=text. The text format
// carries `# type` hints, cumulative histogram bucket lines
// (service.metric.bucket{le=N} count, closed by le=+Inf), and the
// windowed recent view, so external collectors can ingest it without
// the JSON path.
func (e *Exporter) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	snap := e.Snapshot()
	if req.URL.Query().Get("format") == "text" {
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
				if r := h.Recent; r != nil {
					fmt.Fprintf(w, "%s.%s{recent_count} %d\n", svc, k, r.Count)
					fmt.Fprintf(w, "%s.%s{recent_p50} %.0f\n", svc, k, r.P50)
					fmt.Fprintf(w, "%s.%s{recent_p99} %.0f\n", svc, k, r.P99)
					fmt.Fprintf(w, "%s.%s{recent_p999} %.0f\n", svc, k, r.P999)
				}
			}
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(snap)
}

// Fetch scrapes a /metrics endpoint (host:port or full URL) and
// decodes the JSON snapshot — the client side used by `bsfsctl top`
// and the blaster's live progress line.
func Fetch(endpoint string) (map[string]Snapshot, error) {
	url := endpoint
	if len(url) < 7 || (url[:7] != "http://" && (len(url) < 8 || url[:8] != "https://")) {
		url = "http://" + url
	}
	if len(url) < 8 || url[len(url)-8:] != "/metrics" {
		url += "/metrics"
	}
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: %s returned %s", url, resp.Status)
	}
	var out map[string]Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}
