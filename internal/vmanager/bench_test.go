package vmanager

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/wal"
)

// BenchmarkAssignCommit is the version manager's serialisation point
// alone: an op is one writer's assign plus its commit, a one-block
// append at replication 3, all writers on one blob. It runs in memory
// and over a WAL in a temporary directory (two fsynced records per op,
// which concurrent writers share through group commit), with 1 and 8
// writers. From 2,000 ops on it fails above the allocations per op
// each case is budgeted: the placement is interned and the history
// grows by amortised appends, so in memory a pair allocates only its
// share of that growth (0.018 per op at 2,000 ops, one writer), and
// with a log its two records besides (3.02).
func BenchmarkAssignCommit(b *testing.B) {
	for _, tc := range []struct {
		name    string
		durable bool
		writers int
		budget  float64 // allocations per op
	}{
		{"mem/1", false, 1, 0.025},
		{"mem/8", false, 8, 0.035},
		{"wal/1", true, 1, 4.5},
		{"wal/8", true, 8, 4.5},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := NewState(nil)
			if tc.durable {
				log, err := wal.Open(b.TempDir(), wal.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if s, err = Recover(log, nil); err != nil {
					b.Fatal(err)
				}
				defer s.CloseWAL()
			}
			m, err := s.CreateBlob(B, 3)
			if err != nil {
				b.Fatal(err)
			}
			replicas := []string{"p0", "p1", "p2"}
			pair := func(nonce uint64) {
				a, err := s.AssignVersion(m.ID, blob.KindAppend, 0, B, nonce, math.MaxInt64, replicas...)
				if err == nil {
					err = s.Commit(m.ID, a.Version)
				}
				if err != nil {
					b.Error(err)
				}
			}
			pair(0) // the interner and the blob's first slices
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := range tc.writers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := w; i < b.N; i += tc.writers {
						pair(uint64(i + 1))
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			runtime.ReadMemStats(&after)
			allocs := float64(after.Mallocs-before.Mallocs) / float64(b.N)
			b.ReportMetric(allocs, "allocs/pair")
			if b.N >= 2000 && allocs > tc.budget {
				b.Fatalf("%s allocations per assign+commit, budget %v", fmt.Sprint(allocs), tc.budget)
			}
		})
	}
}
