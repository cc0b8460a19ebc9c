package pmanager

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"blobseer/internal/rpc"
	"blobseer/internal/wire"
)

// BenchmarkAllocate is one placement grant through the client and the
// service over an in-process connection: 1 block (a Blob.Append, a
// one-block write) and 16 blocks (a create-mode stream's run, a 16-block
// Blob.Write), each at replication 3 over 8 providers. The caller passes
// its placement vector back call after call, as a client's recycled
// write working set does. From 2,000 ops on it fails above the
// allocations per grant each case is budgeted.
func BenchmarkAllocate(b *testing.B) {
	for _, tc := range []struct {
		blocks int
		budget float64 // allocations per grant
	}{
		{1, 1.5},
		{16, 1.5},
	} {
		b.Run(fmt.Sprintf("blocks=%d", tc.blocks), func(b *testing.B) {
			wire.PoisonReleased(false) // the poison bookkeeping allocates
			defer wire.PoisonReleased(true)
			n := rpc.NewInprocNetwork()
			lis, err := n.Listen("pmanager")
			if err != nil {
				b.Fatal(err)
			}
			srv := rpc.NewServer(NewService(newState(8)).Mux())
			go srv.Serve(lis)
			defer srv.Close()
			pool := rpc.NewPool(n.Dial)
			defer pool.Close()
			c := NewClient(pool, "pmanager")
			ctx := context.Background()
			var into []string
			grant := func() {
				p, err := c.Allocate(ctx, tc.blocks, 3, "h0", into)
				if err != nil {
					b.Fatal(err)
				}
				into = p.Addrs
			}
			grant() // the connection, the interned addresses, the vector
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for range b.N {
				grant()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			allocs := float64(after.Mallocs-before.Mallocs) / float64(b.N)
			b.ReportMetric(allocs, "allocs/grant")
			if b.N >= 2000 && allocs > tc.budget {
				b.Fatalf("%s allocations per grant, budget %v", fmt.Sprint(allocs), tc.budget)
			}
		})
	}
}
