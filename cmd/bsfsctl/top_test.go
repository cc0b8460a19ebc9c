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
	want := "p99=" + formatQuantile("latency_put", fast.SnapshotValues().P99) + " "
	if !strings.Contains(line, want) {
		t.Errorf("second tick printed %q, want the interval's %q (since start: p99=%s)",
			line, want, formatQuantile("latency_put", cur["provider"].Histograms["latency_put"].P99))
	}
}

// TestTopPrintsOneUnitPerHistogram: a latency prints as a duration
// whatever its size, so a fast p50 and a slow p99 share a line's unit,
// and a batch size prints as a plain number whatever its size.
func TestTopPrintsOneUnitPerHistogram(t *testing.T) {
	reg := obs.NewRegistry()
	lat, size := reg.Histogram("latency_put_batch"), reg.Histogram("put_batch_size")
	for i := 0; i < 100; i++ {
		lat.Observe(int64(6 * time.Microsecond))
		size.Observe(50_000)
	}
	lat.Observe(int64(31 * time.Microsecond))
	var out bytes.Buffer
	printTop(&out, map[string]obs.Snapshot{"meta": reg.Snapshot()}, nil, time.Second, false)
	for _, l := range strings.Split(out.String(), "\n") {
		f := strings.Fields(l)
		if len(f) != 5 {
			continue
		}
		for _, q := range f[2:] {
			_, v, _ := strings.Cut(q, "=")
			d, err := time.ParseDuration(v)
			if isLatency := f[0] == "latency_put_batch"; isLatency != (err == nil) {
				t.Errorf("%s: %s, want a duration only for a latency", f[0], q)
			}
			if strings.HasPrefix(q, "p50=") && err == nil && (d < 5*time.Microsecond || d >= 10*time.Microsecond) {
				t.Errorf("%s: %s, want the 6µs p50", f[0], q)
			}
		}
	}
}
