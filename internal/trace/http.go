package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// spansResponse is the wire shape of a /trace query.
type spansResponse struct {
	Spans []Span `json:"spans"`
}

// slowResponse is the wire shape of a /trace?slow=1 query.
type slowResponse struct {
	Slow []Root `json:"slow"`
}

// ServeHTTP answers trace queries: ?id=<32-hex> returns that trace's
// retained spans, ?slow=1 returns the slow-root index. It is mounted
// at /trace next to the metrics exporter.
func (e *Exporter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if q.Get("slow") != "" {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(slowResponse{Slow: e.SlowRoots()})
		return
	}
	idStr := q.Get("id")
	if idStr == "" {
		http.Error(w, "trace: want ?id=<32-hex-digit trace id> or ?slow=1", http.StatusBadRequest)
		return
	}
	id, err := ParseID(idStr)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(spansResponse{Spans: e.Spans(id)})
}

// normalize turns "host:port" or a full URL into the /trace query URL.
func normalize(endpoint string) string {
	if !strings.Contains(endpoint, "://") {
		endpoint = "http://" + endpoint
	}
	if !strings.Contains(endpoint, "/trace") {
		endpoint = strings.TrimRight(endpoint, "/") + "/trace"
	}
	return endpoint
}

func fetchJSON(url string, out any) error {
	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("trace: %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Fetch polls one endpoint ("host:port" or URL) for trace id's spans.
func Fetch(endpoint string, id ID) ([]Span, error) {
	var r spansResponse
	if err := fetchJSON(normalize(endpoint)+"?id="+id.String(), &r); err != nil {
		return nil, err
	}
	return r.Spans, nil
}

// FetchSlow polls one endpoint for its slow-root index.
func FetchSlow(endpoint string) ([]Root, error) {
	var r slowResponse
	if err := fetchJSON(normalize(endpoint)+"?slow=1", &r); err != nil {
		return nil, err
	}
	return r.Slow, nil
}
