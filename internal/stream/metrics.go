package stream

import "blobseer/internal/obs"

// Metrics are the streaming layer's instruments in one client's
// registry, resolved once per client (NewMetrics) and shared by every
// Reader and Writer of it: the per-stream ReadStats answer "what did
// this reader do", these answer "what is the streaming layer doing
// right now". A nil *Metrics records nothing.
type Metrics struct {
	readersOpen, writersOpen *obs.Gauge
	prefetched               *obs.Counter // background block fetches started ahead of readers
	prefetchHits             *obs.Counter // blocks consumed out of readahead windows
	canceled                 *obs.Counter // window entries dropped unconsumed
	wbDepth                  *obs.Gauge   // write-behind blocks enqueued or committing
	wbCommits, wbBytes       *obs.Counter // completed background block commits
}

// NewMetrics resolves the streaming instruments in reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		readersOpen:  reg.Gauge("readers_open"),
		writersOpen:  reg.Gauge("writers_open"),
		prefetched:   reg.Counter("prefetched"),
		prefetchHits: reg.Counter("prefetch_hits"),
		canceled:     reg.Counter("prefetch_canceled"),
		wbDepth:      reg.Gauge("write_behind_depth"),
		wbCommits:    reg.Counter("write_behind_commits"),
		wbBytes:      reg.Counter("write_behind_bytes"),
	}
}

// noMetrics stands in for a nil *Metrics: its nil instruments are no-ops.
var noMetrics Metrics

func orNoMetrics(m *Metrics) *Metrics {
	if m == nil {
		return &noMetrics
	}
	return m
}

// commitDone retires one write-behind block of n committed bytes.
func (m *Metrics) commitDone(n int64) {
	m.wbDepth.Add(-1)
	m.wbCommits.Inc()
	m.wbBytes.Add(n)
}
