package namespace

import (
	"context"
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkCreateFile is one CreateFile of a new file, three levels
// deep, spread over 64 directories, in memory and over a WAL in a
// temporary directory (one fsynced record per create). The blob
// creator is local, so an op is the namespace's own work. From 2,000
// ops on it fails above the allocations per create each case is
// budgeted.
func BenchmarkCreateFile(b *testing.B) {
	for _, tc := range []struct {
		name    string
		durable bool
		budget  float64 // allocations per op
	}{
		{"mem", false, 16},
		{"wal", true, 18},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := benchState(b, tc.durable)
			paths := benchPaths(b.N)
			ctx := context.Background()
			allocs := measure(b, "allocs/create", func(i int) error {
				_, err := s.CreateFile(ctx, paths[i], 4096, 1, false)
				return err
			})
			if b.N >= 2000 && allocs > tc.budget {
				b.Fatalf("%s allocations per create, budget %v", fmt.Sprint(allocs), tc.budget)
			}
		})
	}
}

// BenchmarkGetFile is one GetFile of a file among 1,024, three levels
// deep, in memory and over a WAL (a lookup writes no record). From
// 2,000 ops on it fails above the allocations per lookup each case is
// budgeted.
func BenchmarkGetFile(b *testing.B) {
	for _, tc := range []struct {
		name    string
		durable bool
		budget  float64 // allocations per op
	}{
		{"mem", false, 1},
		{"wal", true, 1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := benchState(b, tc.durable)
			paths := benchPaths(1024)
			for _, p := range paths {
				if _, err := s.CreateFile(context.Background(), p, 4096, 1, false); err != nil {
					b.Fatal(err)
				}
			}
			allocs := measure(b, "allocs/lookup", func(i int) error {
				_, err := s.GetFile(paths[i%len(paths)])
				return err
			})
			if b.N >= 2000 && allocs > tc.budget {
				b.Fatalf("%s allocations per lookup, budget %v", fmt.Sprint(allocs), tc.budget)
			}
		})
	}
}

// benchState is an empty namespace, journaled in a temporary directory
// when durable.
func benchState(b *testing.B, durable bool) *State {
	if durable {
		return openNS(b, b.TempDir(), &seqCreator{})
	}
	return NewState((&seqCreator{}).create)
}

// benchPaths is n file paths, /d<i%64>/e/f<i>.
func benchPaths(n int) []string {
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("/d%d/e/f%d", i%64, i)
	}
	return paths
}

// measure runs op b.N times under the timer and returns the
// allocations per op, which it also reports as unit (b.ReportAllocs
// rounds them to an integer).
func measure(b *testing.B, unit string, op func(i int) error) float64 {
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := range b.N {
		if err := op(i); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(b.N)
	b.ReportMetric(allocs, unit)
	return allocs
}
