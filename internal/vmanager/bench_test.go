package vmanager

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/wal"
)

// BenchmarkAssignCommit is the version manager's serialisation point
// alone: an op is one writer's assign plus its commit, a one-block
// append at replication 3. It runs in memory and over a WAL in a
// temporary directory (two fsynced records per op), with 1 and 8
// writers on one blob, and over a WAL with 8 writers each on its own
// blob (wal/8-blobs). From 2,000 ops on it fails above the allocations
// per op each case is budgeted: the placement is interned and the
// history grows by amortised appends, so in memory a pair allocates
// only its share of that growth (0.018 per op at 2,000 ops, one
// writer), and with a log its two records besides (3.02).
//
// Every WAL arm reports the fsyncs its log issued per record. Group
// commit shares an fsync only between writers of different blobs:
// wal/8-blobs reads 0.13-0.21 fsyncs per record, but wal/8 reads 1.0 and
// takes as long per op as wal/1, because appendStriped holds a blob's
// stripe lock across its record's fsync.
func BenchmarkAssignCommit(b *testing.B) {
	for _, tc := range []struct {
		name           string
		durable        bool
		writers, blobs int
		budget         float64 // allocations per op
	}{
		{"mem/1", false, 1, 1, 0.025},
		{"mem/8", false, 8, 1, 0.035},
		{"wal/1", true, 1, 1, 4.5},
		{"wal/8", true, 8, 1, 4.5},
		{"wal/8-blobs", true, 8, 8, 4.5},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := NewState(nil)
			if tc.durable {
				s = openState(b, b.TempDir())
			}
			ids := newBlobs(b, s, tc.blobs)
			var logged wal.Status
			if tc.durable {
				logged = s.log.Status()
			}
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			err := pairs(s, ids, tc.writers, b.N)
			b.StopTimer()
			runtime.ReadMemStats(&after)
			if err != nil {
				b.Fatal(err)
			}
			if tc.durable {
				b.ReportMetric(fsyncsPerRecord(logged, s.log.Status()), "fsyncs/record")
			}
			allocs := float64(after.Mallocs-before.Mallocs) / float64(b.N)
			b.ReportMetric(allocs, "allocs/pair")
			if b.N >= 2000 && allocs > tc.budget {
				b.Fatalf("%s allocations per assign+commit, budget %v", fmt.Sprint(allocs), tc.budget)
			}
		})
	}
}

// BenchmarkRecover is a cold restart's replay: an op opens a log of
// 250 assign+commit pairs on one blob (503 records, no snapshot),
// recovers the state it holds and closes it. It reports µs and
// allocations per replayed record, and fails above the allocations per
// record it is budgeted.
func BenchmarkRecover(b *testing.B) {
	const budget = 1.0 // allocations per record
	dir := b.TempDir()
	s := openState(b, dir)
	if err := pairs(s, newBlobs(b, s, 1), 1, 250); err != nil {
		b.Fatal(err)
	}
	records := float64(s.log.Status().Records)
	s.CloseWAL()
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for range b.N {
		log, err := wal.Open(dir, wal.Options{})
		if err == nil {
			s, err = Recover(log, nil)
		}
		if err != nil {
			b.Fatal(err)
		}
		s.CloseWAL()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	replayed := records * float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Microseconds())/replayed, "µs/record")
	allocs := float64(after.Mallocs-before.Mallocs) / replayed
	b.ReportMetric(allocs, "allocs/record")
	if allocs > budget {
		b.Fatalf("%s allocations per replayed record, budget %v", fmt.Sprint(allocs), budget)
	}
}

// TestGroupCommitCoalesces pins the WAL's group commit under the
// version manager: 8 concurrent durable publishers, each on its own
// blob, must share fsyncs (strictly fewer fsyncs than records) and
// beat 2x the single-writer rate — the whole point of leader-follower
// batching.
func TestGroupCommitCoalesces(t *testing.T) {
	const versions = 200
	rate := map[int]float64{}
	var perRecord float64
	for _, w := range []int{1, 8} {
		s := openState(t, t.TempDir())
		ids := newBlobs(t, s, w)
		logged := s.log.Status()
		start := time.Now()
		if err := pairs(s, ids, w, w*versions); err != nil {
			t.Fatal(err)
		}
		rate[w] = float64(w*versions) / time.Since(start).Seconds()
		perRecord = fsyncsPerRecord(logged, s.log.Status())
	}
	one, eight := rate[1], rate[8]
	if eight < 2*one {
		t.Errorf("8 concurrent writers should publish >2x faster than 1 under group commit: %.0f vs %.0f/s", eight, one)
	}
	if perRecord >= 1.0 {
		t.Errorf("8 writers should coalesce fsyncs (fsyncs/record < 1), got %.3f", perRecord)
	}
}

// benchReplicas places every pair's one block at replication 3.
var benchReplicas = []string{"p0", "p1", "p2"}

// newBlobs creates n blobs of B-byte blocks at replication 3 and
// publishes one pair on each: the interner and each blob's first
// slices.
func newBlobs(tb testing.TB, s *State, n int) []blob.ID {
	tb.Helper()
	ids := make([]blob.ID, n)
	for i := range ids {
		m, err := s.CreateBlob(B, 3)
		if err == nil {
			err = pair(s, m.ID, 0)
		}
		if err != nil {
			tb.Fatal(err)
		}
		ids[i] = m.ID
	}
	return ids
}

// pair is one writer's assign plus its commit: a one-block append to
// blob id.
func pair(s *State, id blob.ID, nonce uint64) error {
	a, err := s.AssignVersion(id, blob.KindAppend, 0, B, nonce, math.MaxInt64, benchReplicas...)
	if err == nil {
		err = s.Commit(id, a.Version)
	}
	return err
}

// pairs runs n pairs from writers goroutines at once, writer w
// appending to ids[w%len(ids)].
func pairs(s *State, ids []blob.ID, writers, n int) error {
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n && errs[w] == nil; i += writers {
				errs[w] = pair(s, ids[w%len(ids)], uint64(i+1))
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// fsyncsPerRecord is what a log's status moved from before to after:
// fsyncs per record appended (1 when no fsync was shared).
func fsyncsPerRecord(before, after wal.Status) float64 {
	return float64(after.Syncs-before.Syncs) / float64(after.Records-before.Records)
}
