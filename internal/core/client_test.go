package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/cluster"
	"blobseer/internal/core"
	"blobseer/internal/util"
)

const B = 4 * 1024 // block size for these tests

func startCluster(t *testing.T, cfg cluster.Config) *cluster.BlobSeer {
	t.Helper()
	if cfg.BlockSize == 0 {
		cfg.BlockSize = B
	}
	c, err := cluster.StartBlobSeer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// The helpers below run one operation of the flat by-ID shape the
// tests were written in through the Blob/Snapshot handles.

func writeBlob(ctx context.Context, c *core.Client, id blob.ID, off int64, data []byte) (blob.Version, error) {
	b, err := c.OpenBlob(ctx, id)
	if err != nil {
		return 0, err
	}
	return b.Write(ctx, off, data)
}

func appendBlob(ctx context.Context, c *core.Client, id blob.ID, data []byte) (blob.Version, error) {
	b, err := c.OpenBlob(ctx, id)
	if err != nil {
		return 0, err
	}
	return b.Append(ctx, data)
}

// waitBlob pins version v of blob id once it is published.
func waitBlob(ctx context.Context, c *core.Client, id blob.ID, v blob.Version, timeout time.Duration) (*core.Snapshot, error) {
	b, err := c.OpenBlob(ctx, id)
	if err != nil {
		return nil, err
	}
	return b.WaitPublished(ctx, v, timeout)
}

// readBlob returns up to length bytes at off of version v (NoVersion =
// latest published), clamped at the snapshot size: a read past EOF or
// of an unpublished blob returns (nil, nil).
func readBlob(ctx context.Context, c *core.Client, id blob.ID, v blob.Version, off, length int64) ([]byte, error) {
	b, err := c.OpenBlob(ctx, id)
	if err != nil {
		return nil, err
	}
	s, err := b.Snapshot(ctx, v)
	if err != nil || off >= s.Size() || length <= 0 {
		return nil, err
	}
	buf := make([]byte, min(length, s.Size()-off))
	if _, err := s.ReadAtContext(ctx, buf, off); err != nil && err != io.EOF {
		return nil, err
	}
	return buf, nil
}

func pattern(tag byte, n int) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = tag ^ byte(i*31)
	}
	return d
}

func TestWriteReadRoundTrip(t *testing.T) {
	cl := startCluster(t, cluster.Config{DataProviders: 4, MetaProviders: 2})
	c := cl.NewClient("")
	ctx := context.Background()

	m, err := c.Create(ctx, B, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern('a', 3*B+100) // 4 blocks, partial tail
	v, err := writeBlob(ctx, c, m.ID, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Errorf("version = %d", v)
	}
	got, err := readBlob(ctx, c, m.ID, blob.NoVersion, 0, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read mismatch: %d vs %d bytes", len(got), len(data))
	}
}

func TestReadSubRanges(t *testing.T) {
	cl := startCluster(t, cluster.Config{})
	c := cl.NewClient("")
	ctx := context.Background()
	m, _ := c.Create(ctx, B, 1)
	data := pattern('r', 4*B)
	if _, err := writeBlob(ctx, c, m.ID, 0, data); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ off, n int64 }{
		{0, 10},         // head
		{B - 5, 10},     // straddles block boundary
		{2*B + 7, B},    // middle, unaligned
		{4*B - 10, 100}, // clamped at EOF
		{4 * B, 10},     // past EOF -> empty
		{0, 4 * B},      // everything
		{3 * B, 1},      // single byte
	}
	for _, cse := range cases {
		got, err := readBlob(ctx, c, m.ID, blob.NoVersion, cse.off, cse.n)
		if err != nil {
			t.Fatalf("read(%d,%d): %v", cse.off, cse.n, err)
		}
		end := cse.off + cse.n
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		var want []byte
		if cse.off < int64(len(data)) {
			want = data[cse.off:end]
		}
		if !bytes.Equal(got, want) {
			t.Errorf("read(%d,%d) = %d bytes, want %d", cse.off, cse.n, len(got), len(want))
		}
	}
}

func TestVersioningRollbackAndOldReads(t *testing.T) {
	cl := startCluster(t, cluster.Config{})
	c := cl.NewClient("")
	ctx := context.Background()
	m, _ := c.Create(ctx, B, 1)

	v1Data := pattern('1', 2*B)
	v1, err := writeBlob(ctx, c, m.ID, 0, v1Data)
	if err != nil {
		t.Fatal(err)
	}
	v2Data := pattern('2', B)
	v2, err := writeBlob(ctx, c, m.ID, 0, v2Data) // overwrite block 0
	if err != nil {
		t.Fatal(err)
	}
	// Latest reflects v2.
	got, _ := readBlob(ctx, c, m.ID, blob.NoVersion, 0, 2*B)
	want := append(append([]byte(nil), v2Data...), v1Data[B:]...)
	if !bytes.Equal(got, want) {
		t.Error("latest read mismatch")
	}
	// v1 is still fully readable (rollback / time travel).
	got, err = readBlob(ctx, c, m.ID, v1, 0, 2*B)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v1Data) {
		t.Error("old version read mismatch")
	}
	_ = v2
}

func TestAppendsGrowBlob(t *testing.T) {
	cl := startCluster(t, cluster.Config{})
	c := cl.NewClient("")
	ctx := context.Background()
	m, _ := c.Create(ctx, B, 1)

	var want []byte
	for i := 0; i < 5; i++ {
		chunk := pattern(byte('a'+i), B)
		if _, err := appendBlob(ctx, c, m.ID, chunk); err != nil {
			t.Fatal(err)
		}
		want = append(want, chunk...)
	}
	v, size, err := c.Latest(ctx, m.ID)
	if err != nil || v != 5 || size != 5*B {
		t.Fatalf("Latest = v%d size %d, %v", v, size, err)
	}
	got, _ := readBlob(ctx, c, m.ID, blob.NoVersion, 0, size)
	if !bytes.Equal(got, want) {
		t.Error("append accumulation mismatch")
	}
}

func TestConcurrentAppendsAllLand(t *testing.T) {
	// Figure 5's semantics: N concurrent appenders, every chunk lands
	// exactly once, snapshots linearize.
	cl := startCluster(t, cluster.Config{DataProviders: 8, MetaProviders: 3})
	ctx := context.Background()
	setup := cl.NewClient("")
	m, _ := setup.Create(ctx, B, 1)

	const N = 16
	var wg sync.WaitGroup
	errs := make(chan error, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cl.NewClient("") // each appender is its own client
			chunk := bytes.Repeat([]byte{byte(i + 1)}, B)
			if _, err := appendBlob(ctx, c, m.ID, chunk); err != nil {
				errs <- fmt.Errorf("appender %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s, err := waitBlob(ctx, setup, m.ID, N, 10*time.Second)
	if err != nil {
		t.Fatalf("after appends: %v", err)
	}
	size := s.Size()
	if size != N*B {
		t.Fatalf("after appends: size %d", size)
	}
	got, err := readBlob(ctx, setup, m.ID, blob.NoVersion, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	// Every appender's chunk appears exactly once, each block uniform.
	seen := map[byte]int{}
	for b := 0; b < N; b++ {
		blockVal := got[b*B]
		for j := 1; j < B; j++ {
			if got[b*B+j] != blockVal {
				t.Fatalf("block %d not uniform", b)
			}
		}
		seen[blockVal]++
	}
	for i := 1; i <= N; i++ {
		if seen[byte(i)] != 1 {
			t.Errorf("appender %d's chunk appears %d times", i, seen[byte(i)])
		}
	}
}

func TestConcurrentWritersDisjointBlocks(t *testing.T) {
	// Concurrent writes at different offsets of the same blob — the
	// write/write concurrency HDFS cannot do at all.
	cl := startCluster(t, cluster.Config{DataProviders: 8})
	ctx := context.Background()
	setup := cl.NewClient("")
	m, _ := setup.Create(ctx, B, 1)
	// Pre-size the blob so writers overwrite disjoint ranges.
	if _, err := writeBlob(ctx, setup, m.ID, 0, make([]byte, 8*B)); err != nil {
		t.Fatal(err)
	}

	const N = 8
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cl.NewClient("")
			data := bytes.Repeat([]byte{byte('A' + i)}, B)
			if _, err := writeBlob(ctx, c, m.ID, int64(i)*B, data); err != nil {
				t.Errorf("writer %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if _, err := waitBlob(ctx, setup, m.ID, N+1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	got, err := readBlob(ctx, setup, m.ID, blob.NoVersion, 0, 8*B)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < N; i++ {
		for j := 0; j < B; j++ {
			if got[i*B+j] != byte('A'+i) {
				t.Fatalf("block %d corrupted at %d: %c", i, j, got[i*B+j])
			}
		}
	}
}

func TestReadersDecoupledFromWriters(t *testing.T) {
	// A reader pinned to version 1 sees identical data regardless of
	// how many writers run concurrently.
	cl := startCluster(t, cluster.Config{DataProviders: 6})
	ctx := context.Background()
	c := cl.NewClient("")
	m, _ := c.Create(ctx, B, 1)
	v1Data := pattern('x', 2*B)
	if _, err := writeBlob(ctx, c, m.ID, 0, v1Data); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer churn
		defer wg.Done()
		w := cl.NewClient("")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := writeBlob(ctx, w, m.ID, 0, pattern(byte(i), B)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		got, err := readBlob(ctx, c, m.ID, 1, 0, 2*B)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, v1Data) {
			t.Fatal("pinned-version read changed under concurrent writes")
		}
	}
	close(stop)
	wg.Wait()
}

func TestReadUnpublishedVersionRejected(t *testing.T) {
	cl := startCluster(t, cluster.Config{})
	c := cl.NewClient("")
	ctx := context.Background()
	m, _ := c.Create(ctx, B, 1)
	if _, err := readBlob(ctx, c, m.ID, 3, 0, 10); !errors.Is(err, core.ErrNotPublished) {
		t.Errorf("err = %v, want ErrNotPublished", err)
	}
}

func TestEmptyBlobReads(t *testing.T) {
	cl := startCluster(t, cluster.Config{})
	c := cl.NewClient("")
	ctx := context.Background()
	m, _ := c.Create(ctx, B, 1)
	got, err := readBlob(ctx, c, m.ID, blob.NoVersion, 0, 100)
	if err != nil || got != nil {
		t.Errorf("empty blob read = %v, %v", got, err)
	}
}

func TestUnalignedWriteRejectedClientSide(t *testing.T) {
	cl := startCluster(t, cluster.Config{})
	c := cl.NewClient("")
	ctx := context.Background()
	m, _ := c.Create(ctx, B, 1)
	if _, err := writeBlob(ctx, c, m.ID, 7, make([]byte, B)); err == nil {
		t.Error("unaligned write accepted")
	}
	if _, err := writeBlob(ctx, c, m.ID, 0, nil); err == nil {
		t.Error("empty write accepted")
	}
}

func TestReplicationSurvivesProviderLoss(t *testing.T) {
	cl := startCluster(t, cluster.Config{DataProviders: 3})
	ctx := context.Background()
	c := cl.NewClient("")
	m, _ := c.Create(ctx, B, 2) // replication 2
	data := pattern('z', 2*B)
	if _, err := writeBlob(ctx, c, m.ID, 0, data); err != nil {
		t.Fatal(err)
	}
	// Kill one provider's contents entirely.
	victim := cl.ProviderAddrs[0]
	cl.ProviderService(victim).Store().DeletePrefix("")
	got, err := readBlob(ctx, c, m.ID, blob.NoVersion, 0, 2*B)
	if err != nil {
		t.Fatalf("read after replica loss: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Error("read mismatch after replica loss")
	}
}

func TestLocationsExposeDataLayout(t *testing.T) {
	cl := startCluster(t, cluster.Config{DataProviders: 4})
	ctx := context.Background()
	c := cl.NewClient("")
	m, _ := c.Create(ctx, B, 1)
	if _, err := writeBlob(ctx, c, m.ID, 0, pattern('L', 4*B)); err != nil {
		t.Fatal(err)
	}
	b, err := c.OpenBlob(ctx, m.ID)
	if err != nil {
		t.Fatal(err)
	}
	s, err := b.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	locs, err := s.Locations(ctx, 0, 4*B)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 4 {
		t.Fatalf("got %d locations", len(locs))
	}
	hostSeen := map[string]bool{}
	for i, l := range locs {
		if l.Off != int64(i)*B || l.Len != B {
			t.Errorf("loc %d = [%d,%d)", i, l.Off, l.Off+l.Len)
		}
		if len(l.Providers) != 1 || len(l.Hosts) != 1 || l.Hosts[0] == "" {
			t.Errorf("loc %d providers/hosts = %v/%v", i, l.Providers, l.Hosts)
		}
		hostSeen[l.Hosts[0]] = true
	}
	// Round-robin placement: 4 blocks on 4 distinct hosts.
	if len(hostSeen) != 4 {
		t.Errorf("blocks on %d hosts, want 4", len(hostSeen))
	}
}

func TestWriteFailsCleanlyWhenProvidersDie(t *testing.T) {
	cl := startCluster(t, cluster.Config{DataProviders: 2})
	ctx := context.Background()
	c := cl.NewClient("")
	m, _ := c.Create(ctx, B, 1)
	if _, err := writeBlob(ctx, c, m.ID, 0, pattern('1', B)); err != nil {
		t.Fatal(err)
	}
	// Mark every provider dead: allocation must fail, and the blob
	// must remain intact at version 1.
	for _, addr := range cl.ProviderAddrs {
		cl.PMService().State().MarkDead(addr)
	}
	if _, err := writeBlob(ctx, c, m.ID, 0, pattern('2', B)); err == nil {
		t.Fatal("write succeeded with no providers")
	}
	v, size, err := c.Latest(ctx, m.ID)
	if err != nil || v != 1 || size != B {
		t.Fatalf("blob damaged: v%d size %d %v", v, size, err)
	}
}

func TestWriteAcrossTCP(t *testing.T) {
	cl := startCluster(t, cluster.Config{DataProviders: 3, MetaProviders: 2, UseTCP: true})
	c := cl.NewClient("")
	ctx := context.Background()
	m, err := c.Create(ctx, B, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern('t', 2*B+17)
	if _, err := writeBlob(ctx, c, m.ID, 0, data); err != nil {
		t.Fatal(err)
	}
	got, err := readBlob(ctx, c, m.ID, blob.NoVersion, 0, int64(len(data)))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("TCP round trip failed: %v", err)
	}
}

func TestManyVersionsStressAgainstModel(t *testing.T) {
	cl := startCluster(t, cluster.Config{DataProviders: 5, MetaProviders: 3})
	c := cl.NewClient("")
	ctx := context.Background()
	m, _ := c.Create(ctx, B, 1)

	rng := util.NewSplitMix64(2026)
	var model []byte
	unaligned := 0 // appends onto an unaligned end
	apply := func(off int64, data []byte) {
		end := off + int64(len(data))
		if end > int64(len(model)) {
			model = append(model, make([]byte, end-int64(len(model)))...)
		}
		copy(model[off:], data)
	}
	for i := 0; i < 25; i++ {
		sizeBlocks := int64(len(model)) / B
		var off int64
		var data []byte
		if rng.Intn(2) == 0 || sizeBlocks == 0 {
			// An append of any length, onto an end that earlier ones
			// mostly left unaligned.
			data = pattern(byte(rng.Next()), int(1+rng.Int63n(3*B)))
			if _, err := appendBlob(ctx, c, m.ID, data); err != nil {
				t.Fatalf("step %d append: %v", i, err)
			}
			off = int64(len(model))
			if off%B != 0 {
				unaligned++
			}
		} else {
			off = rng.Int63n(sizeBlocks) * B
			n := (1 + rng.Int63n(2)) * B
			data = pattern(byte(rng.Next()), int(n))
			if _, err := writeBlob(ctx, c, m.ID, off, data); err != nil {
				t.Fatalf("step %d write: %v", i, err)
			}
		}
		apply(off, data)
		got, err := readBlob(ctx, c, m.ID, blob.NoVersion, 0, int64(len(model)))
		if err != nil {
			t.Fatalf("step %d read: %v", i, err)
		}
		if !bytes.Equal(got, model) {
			t.Fatalf("step %d: state diverged from model", i)
		}
	}
	// Two final short appends: both read back.
	for _, tail := range [][]byte{pattern('T', B/3), []byte("x")} {
		if len(model)%B != 0 {
			unaligned++
		}
		if _, err := appendBlob(ctx, c, m.ID, tail); err != nil {
			t.Fatalf("final short append: %v", err)
		}
		apply(int64(len(model)), tail)
		got, err := readBlob(ctx, c, m.ID, blob.NoVersion, 0, int64(len(model)))
		if err != nil || !bytes.Equal(got, model) {
			t.Fatalf("final read mismatch: %v", err)
		}
	}
	if unaligned < 10 {
		t.Errorf("%d appends onto an unaligned end, want the steps to make at least 10", unaligned)
	}
}
