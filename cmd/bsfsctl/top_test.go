package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"blobseer/internal/obs"
)

// TestTopPrintsTheInterval: from the second tick on, a histogram line
// shows the percentiles of the last interval, not those since the
// process started — a slow warm-up must not hide a fast interval.
func TestTopPrintsTheInterval(t *testing.T) {
	reg, fast := obs.NewRegistry(), &obs.Histogram{}
	h := reg.Histogram("latency_put")
	for i := 0; i < 100; i++ {
		h.Observe(int64(time.Second))
	}
	prev := map[string]obs.Snapshot{"provider": reg.Snapshot()}
	for i := 0; i < 1000; i++ {
		v := int64(100*time.Microsecond) + int64(i)
		h.Observe(v)
		fast.Observe(v)
	}
	cur := map[string]obs.Snapshot{"provider": reg.Snapshot()}

	var out bytes.Buffer
	printTop(&out, cur, prev, time.Second, true)
	line := ""
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.Contains(l, "latency_put") {
			line = l
		}
	}
	want := "p99=" + formatQuantile(fast.SnapshotValues().P99) + " "
	if !strings.Contains(line, want) {
		t.Errorf("second tick printed %q, want the interval's %q (since start: p99=%s)",
			line, want, formatQuantile(cur["provider"].Histograms["latency_put"].P99))
	}
}
