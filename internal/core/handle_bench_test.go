package core_test

import (
	"context"
	"io"
	"runtime"
	"testing"

	"blobseer/internal/cluster"
	"blobseer/internal/core"
)

// benchSnapshot deploys a small cluster, publishes an nBlocks-block
// blob and returns a pinned snapshot.
func benchSnapshot(b *testing.B, nBlocks int) *core.Snapshot {
	b.Helper()
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 4,
		MetaProviders: 2,
		BlockSize:     B,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cl.Stop)
	ctx := context.Background()
	bh, err := cl.NewClient("").CreateBlob(ctx, B, 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := bh.Write(ctx, 0, pattern('b', nBlocks*B)); err != nil {
		b.Fatal(err)
	}
	s, err := bh.Latest(ctx)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the connections and free lists so the reads measure steady
	// state.
	buf := make([]byte, s.Size())
	if _, err := s.ReadAt(buf, 0); err != nil && err != io.EOF {
		b.Fatal(err)
	}
	return s
}

// BenchmarkSnapshotReadAt measures repeated pinned-snapshot reads into
// a caller-owned buffer: zero whole-range intermediate allocations and
// zero per-call metadata round-trips. Every client carries its
// registry, so each read also times Resolve into it.
func BenchmarkSnapshotReadAt(b *testing.B) {
	const nBlocks = 8
	s := benchSnapshot(b, nBlocks)
	buf := make([]byte, s.Size())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ReadAt(buf, 0); err != nil && err != io.EOF {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.SetBytes(s.Size())
	// The budget of a warm 8-block read, client and daemons together: 0
	// now that a provider names each block by its key's bytes, 8 while it
	// built each key's string once the read started no goroutine (it
	// sends every provider's call, then waits on each, and a mem://
	// provider answers on its connection's goroutine), 15 when each
	// provider past the first was fetched in a goroutine of the read's and
	// each request ran in one of the provider's, 22 when each read built its extents, fetches and
	// provider window, 32 when every frame allocated its wire.Buffer, 58
	// when every block was a call of its own, 77 when the tree was walked
	// to the leaves.
	if allocs := float64(after.Mallocs-before.Mallocs) / float64(b.N); b.N >= 1000 && allocs > 3 {
		b.Errorf("%.0f allocations per warm %d-block ReadAt, want at most 3", allocs, nBlocks)
	}
}

// BenchmarkSnapshotReadAtColdMeta measures the pinned reads that once
// fetched their leaves from the metadata providers: 64 one-block
// writes, then 8 KB reads at a half-block offset, each spanning 3
// blocks of 3 versions, by a fresh client over loopback TCP. The pin's
// descriptors name every block's replicas, so no read sends a metadata
// call, and what it allocates is the block index's and the data path's
// cost per call.
func BenchmarkSnapshotReadAtColdMeta(b *testing.B) {
	const nBlocks = 64
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 4,
		MetaProviders: 2,
		BlockSize:     B,
		UseTCP:        true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cl.Stop)
	ctx := context.Background()
	bh, err := cl.NewClient("").CreateBlob(ctx, B, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < nBlocks; i++ {
		if _, err := bh.Write(ctx, int64(i)*B, pattern(byte('a'+i%26), B)); err != nil {
			b.Fatal(err)
		}
	}
	rb, err := cl.NewClient("").OpenBlob(ctx, bh.ID())
	if err != nil {
		b.Fatal(err)
	}
	s, err := rb.Latest(ctx)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 2*B)
	read := func(i int) {
		off := int64(i%(nBlocks-2))*B + B/2
		if _, err := s.ReadAt(buf, off); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < nBlocks; i++ { // connections, frames and free lists warm
		read(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read(i)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.SetBytes(int64(len(buf)))
	// The budget of a 3-block read, client and daemons together: 0 now
	// that a provider names each block by its key's bytes, 3 while it
	// built each key's string and the read started no goroutine at
	// either end, 8 while it fetched
	// each provider past the first in a goroutine and each request ran in
	// one at the provider, 10 when each fetched its 3 leaves through a
	// node cache whose flights and the read's working set were recycled,
	// 21 when each read built them, 43 when every layer built its own map,
	// strings and copies for each key.
	if allocs := float64(after.Mallocs-before.Mallocs) / float64(b.N); b.N >= 1000 && allocs > 2 {
		b.Errorf("%.1f allocations per 3-block ReadAt of a fresh client, want at most 2", allocs)
	}
}
