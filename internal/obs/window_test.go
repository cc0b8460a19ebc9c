package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestWindowedHistogramRecent: a windowed histogram's Recent() view
// must cover the last winMerge windows and age out, while the
// cumulative counters keep everything.
func TestWindowedHistogramRecent(t *testing.T) {
	r := NewRegistry()
	r.SetWindow(25*time.Millisecond, 2)
	h := r.Histogram("lat")

	for i := 0; i < 10; i++ {
		h.Observe(100)
	}
	rec := h.Recent()
	if rec == nil {
		t.Fatal("windowed histogram returned nil Recent")
	}
	if rec.Count != 10 {
		t.Fatalf("Recent().Count = %d immediately after observing, want 10", rec.Count)
	}
	if want := (50 * time.Millisecond).Seconds(); rec.Seconds != want {
		t.Errorf("Recent().Seconds = %v, want %v (window x merge)", rec.Seconds, want)
	}
	if rec.P50 <= 0 {
		t.Errorf("Recent().P50 = %v, want > 0", rec.P50)
	}

	// Outwait the merge horizon: the recent view empties, the
	// cumulative view does not.
	time.Sleep(80 * time.Millisecond)
	if rec = h.Recent(); rec.Count != 0 {
		t.Errorf("Recent().Count = %d after the merge horizon passed, want 0", rec.Count)
	}
	if h.Count() != 10 {
		t.Errorf("cumulative Count = %d, want 10 (windows must not affect totals)", h.Count())
	}
}

// TestWindowedHistogramRotation: observations straddling a window edge
// land in different slots, and the merged view still sees both while
// inside the horizon.
func TestWindowedHistogramRotation(t *testing.T) {
	r := NewRegistry()
	r.SetWindow(30*time.Millisecond, 3)
	h := r.Histogram("lat")

	h.Observe(1)
	time.Sleep(35 * time.Millisecond) // cross at least one window edge
	h.Observe(1)
	if rec := h.Recent(); rec.Count != 2 {
		t.Errorf("Recent().Count = %d across a rotation, want 2", rec.Count)
	}
}

// TestUnwindowedRecentIsNil: Recent is strictly opt-out via
// SetWindow(0, 0); the default registry windows at DefaultWindow.
func TestUnwindowedRecentIsNil(t *testing.T) {
	r := NewRegistry()
	r.SetWindow(0, 0)
	h := r.Histogram("lat")
	h.Observe(5)
	if h.Recent() != nil {
		t.Error("unwindowed histogram returned a Recent view")
	}
	if h.SnapshotValues().Recent != nil {
		t.Error("unwindowed snapshot carries a Recent view")
	}
}

// TestSnapshotBucketsCumulative: the exported bucket counts are
// cumulative (each le's count includes every smaller bucket), closing
// at the total.
func TestSnapshotBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for _, v := range []int64{1, 1, 3, 10, 1000} {
		h.Observe(v)
	}
	s := h.SnapshotValues()
	if len(s.Buckets) == 0 {
		t.Fatal("snapshot has no buckets")
	}
	var prevLe, prevCount int64
	for _, b := range s.Buckets {
		if b.Le <= prevLe {
			t.Fatalf("bucket bounds not increasing: %d after %d", b.Le, prevLe)
		}
		if b.Count < prevCount {
			t.Fatalf("bucket counts not cumulative: %d after %d", b.Count, prevCount)
		}
		prevLe, prevCount = b.Le, b.Count
	}
	if last := s.Buckets[len(s.Buckets)-1].Count; last != 5 {
		t.Errorf("top bucket count = %d, want the total 5", last)
	}
	// Spot-check the first bucket: both observations of 1 land in le=1.
	if s.Buckets[0].Le != 1 || s.Buckets[0].Count != 2 {
		t.Errorf("first bucket = {le=%d} %d, want {le=1} 2", s.Buckets[0].Le, s.Buckets[0].Count)
	}
}

// TestTextFormatScrape pins the scrape-friendly text contract: type
// hints, cumulative bucket lines closed by +Inf, and the windowed
// recent lines.
func TestTextFormatScrape(t *testing.T) {
	reg := NewRegistry()
	reg.SetWindow(time.Minute, 2) // wide window: observations stay recent
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
		"svc.lat{recent_count} 2",
		"svc.lat{recent_p50}",
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
