package core_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"slices"
	"sync"
	"testing"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/cluster"
	"blobseer/internal/core"
)

// TestSnapshotReadAtContract pins the io.ReaderAt contract on pinned
// snapshots: full fill with nil error inside the snapshot, io.EOF
// exactly at the tail (n < len(p) only there), io.EOF with n == 0 past
// the end, and an explicit error for negative offsets.
func TestSnapshotReadAtContract(t *testing.T) {
	cl := startCluster(t, cluster.Config{DataProviders: 4})
	ctx := context.Background()
	c := cl.NewClient("")
	b, err := c.CreateBlob(ctx, B, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern('h', 3*B+100) // 4 blocks, partial tail
	if _, err := b.Write(ctx, 0, data); err != nil {
		t.Fatal(err)
	}
	s, err := b.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != int64(len(data)) || s.Version() != 1 {
		t.Fatalf("snapshot = v%d size %d, want v1 size %d", s.Version(), s.Size(), len(data))
	}

	// Interior reads: full fill, nil error, exact bytes.
	for _, cse := range []struct{ off, n int64 }{
		{0, 10}, {B - 5, 10}, {2*B + 7, B}, {0, int64(len(data)) - 1},
	} {
		p := make([]byte, cse.n)
		n, err := s.ReadAt(p, cse.off)
		if err != nil || n != int(cse.n) {
			t.Fatalf("ReadAt(%d,%d) = %d, %v; want full fill, nil", cse.off, cse.n, n, err)
		}
		if !bytes.Equal(p, data[cse.off:cse.off+cse.n]) {
			t.Fatalf("ReadAt(%d,%d) returned wrong bytes", cse.off, cse.n)
		}
	}

	// A read ending exactly at the tail: full fill plus io.EOF.
	p := make([]byte, 100)
	if n, err := s.ReadAt(p, int64(len(data))-100); n != 100 || err != io.EOF {
		t.Fatalf("tail ReadAt = %d, %v; want 100, io.EOF", n, err)
	}
	if !bytes.Equal(p, data[len(data)-100:]) {
		t.Fatal("tail ReadAt returned wrong bytes")
	}
	// A read straddling the tail: short fill plus io.EOF.
	if n, err := s.ReadAt(p, int64(len(data))-40); n != 40 || err != io.EOF {
		t.Fatalf("straddling ReadAt = %d, %v; want 40, io.EOF", n, err)
	}
	// Entirely past the end: 0, io.EOF.
	if n, err := s.ReadAt(p, int64(len(data))); n != 0 || err != io.EOF {
		t.Fatalf("past-EOF ReadAt = %d, %v; want 0, io.EOF", n, err)
	}
	// Negative offsets are an error, not a clamp.
	if _, err := s.ReadAt(p, -1); !errors.Is(err, core.ErrNegativeOffset) {
		t.Fatalf("negative ReadAt err = %v, want ErrNegativeOffset", err)
	}
}

// TestSnapshotReadAtReusedDirtyBuffer: ReadAt fills the caller's
// buffer in place, so holes and short-block tails must be cleared
// explicitly — a reused buffer holding stale bytes must come back
// exactly as the snapshot's content.
func TestSnapshotReadAtReusedDirtyBuffer(t *testing.T) {
	cl := startCluster(t, cluster.Config{DataProviders: 4})
	ctx := context.Background()
	c := cl.NewClient("")
	b, err := c.CreateBlob(ctx, B, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Write block 0 and block 2, leaving block 1 a hole, by growing the
	// blob then overwriting: write 3 blocks, then a sparse view comes
	// from reading v1 which only covers block 0.
	if _, err := b.Write(ctx, 0, pattern('a', B)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write(ctx, 2*B, pattern('c', B/2)); err != nil {
		t.Fatal(err)
	}
	s, err := b.WaitPublished(ctx, 2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, s.Size())
	copy(want, pattern('a', B))
	copy(want[2*B:], pattern('c', B/2))

	dirty := bytes.Repeat([]byte{0xff}, int(s.Size()))
	if _, err := s.ReadAt(dirty, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(dirty, want) {
		t.Fatal("reused dirty buffer not fully overwritten: holes must read as zeros")
	}
}

// TestLatestOnUnpublishedBlob: the error-taxonomy fix — a blob with no
// published writes yields an explicit zero-size snapshot (Version ==
// NoVersion), distinguishable from a zero-length clamp, and its reads
// cleanly report io.EOF.
func TestLatestOnUnpublishedBlob(t *testing.T) {
	cl := startCluster(t, cluster.Config{})
	ctx := context.Background()
	c := cl.NewClient("")
	b, err := c.CreateBlob(ctx, B, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := b.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s.Version() != blob.NoVersion || s.Size() != 0 {
		t.Fatalf("unpublished blob snapshot = v%d size %d, want NoVersion size 0", s.Version(), s.Size())
	}
	if n, err := s.ReadAt(make([]byte, 10), 0); n != 0 || err != io.EOF {
		t.Fatalf("unpublished ReadAt = %d, %v; want 0, io.EOF", n, err)
	}
	// Pinning a named version that was never published stays an error.
	if _, err := b.Snapshot(ctx, 1); !errors.Is(err, core.ErrNotPublished) {
		t.Fatalf("Snapshot(1) err = %v, want ErrNotPublished", err)
	}
}

// TestSnapshotPinnedMetadataOps is the op-count regression pin for the
// handle redesign: after one warming read, N repeated ReadAt calls
// against a pinned Snapshot must cost ZERO version-manager round-trips
// and ZERO metadata-DHT fetches (the node cache serves the tree).
func TestSnapshotPinnedMetadataOps(t *testing.T) {
	cl := startCluster(t, cluster.Config{
		DataProviders: 4,
		MetaProviders: 2,
		MetaCacheSize: -1, // default-sized immutable-node cache
	})
	ctx := context.Background()
	c := cl.NewClient("")
	b, err := c.CreateBlob(ctx, B, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern('m', 8*B)
	if _, err := b.Write(ctx, 0, data); err != nil {
		t.Fatal(err)
	}
	s, err := b.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, len(data))
	read := func() {
		t.Helper()
		if _, err := s.ReadAtContext(ctx, buf, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, data) {
			t.Fatal("pinned read returned wrong data")
		}
	}
	read() // warm the node cache

	vmCalls := cl.VMService().Ops().Total()
	warm := c.MetaCacheStats()
	const N = 10
	for i := 0; i < N; i++ {
		read()
	}
	if got := cl.VMService().Ops().Total(); got != vmCalls {
		t.Errorf("%d repeated pinned reads cost %d version-manager round-trips, want 0", N, got-vmCalls)
	}
	warmer := c.MetaCacheStats()
	if warmer.Misses != warm.Misses {
		t.Errorf("%d repeated pinned reads missed the node cache %d times, want 0", N, warmer.Misses-warm.Misses)
	}
}

// TestParallelReadAtWhileWritersPublish hammers one Snapshot with
// concurrent ReadAt calls from many goroutines while writers keep
// publishing new versions — the pinned snapshot must stay bit-stable
// and data-race free (run under -race in CI).
func TestParallelReadAtWhileWritersPublish(t *testing.T) {
	cl := startCluster(t, cluster.Config{DataProviders: 6, MetaProviders: 2, MetaCacheSize: -1})
	ctx := context.Background()
	c := cl.NewClient("")
	b, err := c.CreateBlob(ctx, B, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern('p', 6*B)
	if _, err := b.Write(ctx, 0, data); err != nil {
		t.Fatal(err)
	}
	s, err := b.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(1)
	go func() { // writer churn: new versions over the same range
		defer writers.Done()
		w := cl.NewClient("")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := writeBlob(ctx, w, b.ID(), 0, pattern(byte(i), B)); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	const readers = 8
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, B+13)
			for i := 0; i < 20; i++ {
				off := int64((g*17 + i*31) % (5 * B))
				n, err := s.ReadAt(buf, off)
				if err != nil && err != io.EOF {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				if !bytes.Equal(buf[:n], data[off:off+int64(n)]) {
					t.Errorf("reader %d: pinned snapshot changed under concurrent writes", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	writers.Wait()
}

// TestBlobHandleWriteAppendRoundTrip drives writes and appends through
// the handle surface and reads them back through pinned snapshots and
// the streaming reader.
func TestBlobHandleWriteAppendRoundTrip(t *testing.T) {
	cl := startCluster(t, cluster.Config{DataProviders: 4})
	ctx := context.Background()
	c := cl.NewClient("")
	b, err := c.CreateBlob(ctx, B, 1)
	if err != nil {
		t.Fatal(err)
	}
	first := pattern('1', 2*B)
	if v, err := b.Write(ctx, 0, first); err != nil || v != 1 {
		t.Fatalf("Write = v%d, %v", v, err)
	}
	second := pattern('2', B)
	if v, err := b.Append(ctx, second); err != nil || v != 2 {
		t.Fatalf("Append = v%d, %v", v, err)
	}

	// Each snapshot pin sees its own immutable state.
	s1, err := b.Snapshot(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := b.Snapshot(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Size() != 2*B || s2.Size() != 3*B {
		t.Fatalf("sizes = %d, %d", s1.Size(), s2.Size())
	}

	// Sequential streaming through the shared engine.
	r := s2.NewReader(ctx, core.ReaderOptions{Readahead: 2})
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte(nil), first...), second...)
	if !bytes.Equal(got, want) {
		t.Fatalf("streamed read mismatch: %d vs %d bytes", len(got), len(want))
	}

	// Streaming writes through the handle's write-behind writer.
	b2, err := c.CreateBlob(ctx, B, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := b2.NewWriter(ctx, core.WriterOptions{Depth: 2})
	payload := pattern('w', 4*B+99)
	for off := 0; off < len(payload); off += 777 {
		end := min(off+777, len(payload))
		if _, err := w.Write(payload[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := b2.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	back := make([]byte, s.Size())
	if _, err := s.ReadAt(back, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(back, payload) {
		t.Fatal("write-behind handle stream mismatch")
	}
}

// TestSnapshotLocationsPinned: Locations through a pinned snapshot
// reflect that version's layout even after later versions move data.
func TestSnapshotLocationsPinned(t *testing.T) {
	cl := startCluster(t, cluster.Config{DataProviders: 4})
	ctx := context.Background()
	c := cl.NewClient("")
	b, err := c.CreateBlob(ctx, B, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write(ctx, 0, pattern('L', 4*B)); err != nil {
		t.Fatal(err)
	}
	s, err := b.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// New versions over the same blocks do not disturb the pin.
	if _, err := b.Write(ctx, 0, pattern('M', 2*B)); err != nil {
		t.Fatal(err)
	}
	locs, err := s.Locations(ctx, 0, s.Size())
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 4 {
		t.Fatalf("got %d locations, want 4", len(locs))
	}
	for i, l := range locs {
		if l.Off != int64(i)*B || l.Len != B || len(l.Hosts) != 1 {
			t.Errorf("loc %d = %+v", i, l)
		}
	}
}

// TestLocationsAreTheCallers: the provider lists Locations returns are
// copies. Sorting or editing one must change neither what a later read
// of the snapshot fetches nor what a later Locations reports, though the
// node cache holds the leaves and leaves placed alike share one list.
func TestLocationsAreTheCallers(t *testing.T) {
	cl := startCluster(t, cluster.Config{DataProviders: 4, MetaProviders: 2, MetaCacheSize: -1})
	ctx := context.Background()
	c := cl.NewClient("")
	b, err := c.CreateBlob(ctx, B, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern('m', 8*B)
	if _, err := b.Write(ctx, 0, data); err != nil {
		t.Fatal(err)
	}
	rb, err := cl.NewClient("").OpenBlob(ctx, b.ID())
	if err != nil {
		t.Fatal(err)
	}
	s, err := rb.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	before, err := s.Locations(ctx, 0, s.Size())
	if err != nil {
		t.Fatal(err)
	}
	var want [][]string
	for _, l := range before {
		want = append(want, append([]string(nil), l.Providers...))
		for i := range l.Providers {
			l.Providers[i] = "nowhere:1"
		}
	}
	got := make([]byte, len(data))
	if _, err := s.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatalf("read after editing returned locations: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read after editing returned locations: wrong bytes")
	}
	after, err := s.Locations(ctx, 0, s.Size())
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(want) {
		t.Fatalf("%d locations, then %d", len(want), len(after))
	}
	for i, l := range after {
		if !slices.Equal(l.Providers, want[i]) {
			t.Errorf("location %d: providers %v, then %v", i, want[i], l.Providers)
		}
	}
}
