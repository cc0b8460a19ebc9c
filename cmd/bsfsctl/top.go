package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"blobseer/internal/obs"
)

// runTop polls one or more /metrics endpoints (see -metrics and
// blobseerd -metrics-addr / cluster MetricsAddr) and renders a
// cluster-wide view: per-service counters with rates computed from
// successive scrapes, gauges, and latency histogram percentiles over
// each interval (differenced the same way).
// Endpoints are merged by service name, so one in-proc cluster
// endpoint and a fleet of per-daemon endpoints render identically.
// When the same name arrives from several endpoints (a fleet of
// same-role daemons all report as "provider"), each copy is shown
// qualified by its endpoint instead of the last one winning.
func runTop(endpoints []string, interval time.Duration, iters int) error {
	if len(endpoints) == 0 {
		return fmt.Errorf("top: no metrics endpoints (pass -metrics host:port[,host:port...])")
	}
	if interval <= 0 {
		interval = 2 * time.Second
	}
	var prev map[string]obs.Snapshot
	for i := 0; iters <= 0 || i < iters; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		type sample struct {
			ep string
			s  obs.Snapshot
		}
		bySvc := make(map[string][]sample)
		for _, ep := range endpoints {
			snap, err := obs.FetchMetrics(ep)
			if err != nil {
				fmt.Fprintf(os.Stderr, "top: %s: %v\n", ep, err)
				continue
			}
			for svc, s := range snap {
				bySvc[svc] = append(bySvc[svc], sample{ep, s})
			}
		}
		merged := make(map[string]obs.Snapshot)
		for svc, list := range bySvc {
			if len(list) == 1 {
				merged[svc] = list[0].s
				continue
			}
			for _, sm := range list {
				merged[svc+"@"+sm.ep] = sm.s
			}
		}
		printTop(os.Stdout, merged, prev, interval, i > 0)
		prev = merged
	}
	return nil
}

// printTop renders one scrape. Rates need two samples, so the first
// tick shows totals and each histogram since its process started; from
// the second on, a histogram line covers the last interval alone.
func printTop(w io.Writer, cur, prev map[string]obs.Snapshot, interval time.Duration, haveRates bool) {
	fmt.Fprintf(w, "=== %s  (%d service(s)) ===\n", time.Now().Format("15:04:05"), len(cur))
	for _, svc := range sortedNames(cur) {
		s := cur[svc]
		p, hadPrev := prev[svc]
		fmt.Fprintf(w, "%s\n", svc)
		for _, k := range sortedNames(s.Counters) {
			v := s.Counters[k]
			if haveRates && hadPrev {
				rate := float64(v-p.Counters[k]) / interval.Seconds()
				fmt.Fprintf(w, "  %-28s %12d  %10.1f/s\n", k, v, rate)
			} else {
				fmt.Fprintf(w, "  %-28s %12d\n", k, v)
			}
		}
		for _, k := range sortedNames(s.Gauges) {
			fmt.Fprintf(w, "  %-28s %12d\n", k, s.Gauges[k])
		}
		for _, k := range sortedNames(s.Histograms) {
			h := s.Histograms[k]
			if haveRates && hadPrev {
				h = h.Since(p.Histograms[k])
			}
			fmt.Fprintf(w, "  %-28s %12d  p50=%s p99=%s p999=%s\n",
				k, h.Count, formatQuantile(k, h.P50), formatQuantile(k, h.P99), formatQuantile(k, h.P999))
		}
	}
}

// formatQuantile renders a quantile of the histogram called name in the
// histogram's one unit: a latency (latency_*, *_latency, corrected_*)
// is nanoseconds and prints as a duration, anything else (batch sizes)
// as a plain number.
func formatQuantile(name string, v float64) string {
	if strings.HasPrefix(name, "latency_") || strings.HasSuffix(name, "_latency") || strings.HasPrefix(name, "corrected_") {
		d := time.Duration(v)
		if d < 10*time.Microsecond {
			return d.Round(10 * time.Nanosecond).String()
		}
		return d.Round(time.Microsecond).String()
	}
	return fmt.Sprintf("%.0f", v)
}

func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
