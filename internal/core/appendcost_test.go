package core_test

import (
	"context"
	"math"
	"runtime"
	"testing"

	"blobseer/internal/cluster"
)

// TestAppendCostDoesNotGrowWithHistory: what one append allocates, in
// the client and every daemon together, is the same from history length
// 64 on and up to 8,192. (A per-append copy of the history was 56 bytes
// per version: 3.5 KB at the first point, 450 KB at the second.)
func TestAppendCostDoesNotGrowWithHistory(t *testing.T) {
	const bs = 1024
	cl := startCluster(t, cluster.Config{DataProviders: 2, MetaProviders: 2, BlockSize: bs, MetaCacheSize: 64})
	ctx := context.Background()
	b, err := cl.NewClient("").CreateBlob(ctx, bs, 1)
	if err != nil {
		t.Fatal(err)
	}
	block := pattern('a', bs)
	// One far block first: every append below then builds a tree of the
	// same depth, and the history's length is all that differs between
	// the two measurements.
	if _, err := b.Write(ctx, (1<<14-1)*bs, block); err != nil {
		t.Fatal(err)
	}
	appendN := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := b.Append(ctx, block); err != nil {
				t.Fatal(err)
			}
		}
	}
	// bytesPerAppend is the cheapest of 24 windows of 8 appends: the
	// stores' maps grow a table at a time (up to 100 KB each, a few
	// hundred inserts apart), which lands in some windows, not in all.
	bytesPerAppend := func() float64 {
		best := math.Inf(1)
		for w := 0; w < 24; w++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			appendN(8)
			runtime.ReadMemStats(&after)
			best = min(best, float64(after.TotalAlloc-before.TotalAlloc)/8)
		}
		return best
	}
	appendN(64)
	short := bytesPerAppend()
	appendN(8192 - 64 - 2*24*8)
	long := bytesPerAppend()
	t.Logf("bytes allocated per %d-byte append: %.0f from history length 64, %.0f up to 8,192", bs, short, long)
	if long > 1.1*short || long < 0.9*short {
		t.Errorf("an append allocates %.0f bytes from history length 64 and %.0f up to 8,192, want them within 10%%", short, long)
	}
}
