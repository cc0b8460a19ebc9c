package vmanager

import (
	"context"
	"errors"
	"testing"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/mdtree"
	"blobseer/internal/rpc"
	"blobseer/internal/wire"
)

func startVM(t *testing.T) *Client {
	t.Helper()
	n := rpc.NewInprocNetwork()
	svc := NewService(NewState(MetadataRepairer(mdtree.NewMemStore())))
	lis, err := n.Listen("vmanager")
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(svc.Mux())
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	pool := rpc.NewPool(n.Dial)
	t.Cleanup(pool.Close)
	return NewClient(pool, "vmanager")
}

func TestClientRoundTrip(t *testing.T) {
	c := startVM(t)
	ctx := context.Background()

	m, err := c.CreateBlob(ctx, B, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.ID == 0 {
		t.Fatal("zero blob id")
	}
	got, err := c.GetMeta(ctx, m.ID)
	if err != nil || got.BlockSize != B || got.Replication != 2 {
		t.Fatalf("GetMeta = %+v, %v", got, err)
	}

	a, err := c.AssignVersion(ctx, m.ID, blob.KindAppend, 0, 2*B, 0x11, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Version != 1 || a.Off != 0 || a.Size != 2*B || len(a.Descs) != 1 {
		t.Fatalf("assignment = %+v", a)
	}
	if a.Descs[0].Nonce != 0x11 || a.Descs[0].Kind != blob.KindAppend {
		t.Errorf("desc round trip = %+v", a.Descs[0])
	}
	if err := c.Commit(ctx, m.ID, a.Version); err != nil {
		t.Fatal(err)
	}
	v, size, err := c.Latest(ctx, m.ID)
	if err != nil || v != 1 || size != 2*B {
		t.Fatalf("Latest = %d/%d, %v", v, size, err)
	}
	d, err := c.VersionInfo(ctx, m.ID, 1)
	if err != nil || d.SizeAfter != 2*B {
		t.Fatalf("VersionInfo = %+v, %v", d, err)
	}
	ds, err := c.History(ctx, m.ID, 0)
	if err != nil || len(ds) != 1 {
		t.Fatalf("History = %+v, %v", ds, err)
	}
	ids, err := c.ListBlobs(ctx)
	if err != nil || len(ids) != 1 || ids[0] != m.ID {
		t.Fatalf("ListBlobs = %v, %v", ids, err)
	}
}

func TestClientSentinelErrors(t *testing.T) {
	c := startVM(t)
	ctx := context.Background()

	if _, err := c.GetMeta(ctx, 42); !errors.Is(err, ErrUnknownBlob) {
		t.Errorf("unknown blob over RPC = %v", err)
	}
	m, _ := c.CreateBlob(ctx, B, 1)
	if _, err := c.AssignVersion(ctx, m.ID, blob.KindWrite, 3, B, 1, 0); !errors.Is(err, ErrUnaligned) {
		t.Errorf("unaligned over RPC = %v", err)
	}
	if err := c.Commit(ctx, m.ID, 7); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version over RPC = %v", err)
	}
}

func TestClientWaitPublished(t *testing.T) {
	c := startVM(t)
	ctx := context.Background()
	m, _ := c.CreateBlob(ctx, B, 1)
	a, _ := c.AssignVersion(ctx, m.ID, blob.KindAppend, 0, B, 1, 0)

	done := make(chan error, 1)
	go func() {
		_, _, err := c.WaitPublished(ctx, m.ID, a.Version, 5*time.Second)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := c.Commit(ctx, m.ID, a.Version); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("wait = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("wait never returned")
	}

	// Timeout path.
	c.AssignVersion(ctx, m.ID, blob.KindAppend, 0, B, 2, 0)
	if _, _, err := c.WaitPublished(ctx, m.ID, 2, 20*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Errorf("timeout over RPC = %v", err)
	}
}

func TestJanitorAbortsStuckWriters(t *testing.T) {
	st := mdtree.NewMemStore()
	svc := NewService(NewState(MetadataRepairer(st)))
	defer svc.StopJanitor()
	s := svc.State()
	m, _ := s.CreateBlob(B, 1)
	s.AssignVersion(m.ID, blob.KindAppend, 0, B, 1, 0)

	svc.StartJanitor(10*time.Millisecond, 5*time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if v, _, _ := s.Latest(m.ID); v == 1 {
			break // janitor aborted + repaired + published
		}
		if time.Now().After(deadline) {
			t.Fatal("janitor never reclaimed the stuck write")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ds, _ := s.History(m.ID, 0)
	if !ds[0].Aborted {
		t.Error("stuck write not marked aborted")
	}
}

// TestLatestSinceCarriesPublishedDescriptors: a pinning Latest returns
// the descriptors of (since, published] in the same reply — published
// versions only, none past the cap, none to a caller already there —
// and the 8-byte request of a size query is answered as it always was.
func TestLatestSinceCarriesPublishedDescriptors(t *testing.T) {
	c := startVM(t)
	ctx := context.Background()
	m, err := c.CreateBlob(ctx, B, 1)
	if err != nil {
		t.Fatal(err)
	}
	assign := func() blob.Version {
		t.Helper()
		a, err := c.AssignVersion(ctx, m.ID, blob.KindAppend, 0, B, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		return a.Version
	}
	for i := 0; i < 3; i++ {
		if err := c.Commit(ctx, m.ID, assign()); err != nil {
			t.Fatal(err)
		}
	}
	assign() // version 4 stays in flight

	v, size, descs, err := c.LatestSince(ctx, m.ID, 1)
	if err != nil || v != 3 || size != 3*B {
		t.Fatalf("LatestSince = v%d size %d, %v", v, size, err)
	}
	if len(descs) != 2 || descs[0].Version != 2 || descs[1].Version != 3 || descs[1].SizeAfter != 3*B {
		t.Fatalf("descriptors since 1 = %+v, want exactly versions 2 and 3 (4 is unpublished)", descs)
	}
	for _, since := range []blob.Version{3, 4, 99} {
		if _, _, descs, err := c.LatestSince(ctx, m.ID, since); err != nil || len(descs) != 0 {
			t.Errorf("since %d: %d descriptors, %v; want none", since, len(descs), err)
		}
	}

	// An older client's request is the blob ID alone; the reply must be
	// exactly version and size.
	err = c.call(ctx, 0, mLatest, 8, func(b *wire.Buffer) { b.U64(uint64(m.ID)) }, func(p []byte) error {
		if len(p) != 16 {
			t.Errorf("8-byte Latest request answered with %d bytes, want 16", len(p))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Past the cap the reply carries none: the reader walks the tree.
	s := NewState(nil)
	big, _ := s.CreateBlob(B, 1)
	for i := 0; i < latestDescsCap+1; i++ {
		a, err := s.AssignVersion(big.ID, blob.KindAppend, 0, B, 1, blob.Version(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(big.ID, a.Version); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, descs, _ := s.LatestSince(big.ID, 0); descs != nil {
		t.Errorf("a gap of %d got %d descriptors, want none", latestDescsCap+1, len(descs))
	}
	if _, _, descs, _ := s.LatestSince(big.ID, 1); len(descs) != latestDescsCap {
		t.Errorf("a gap of exactly the cap got %d descriptors, want %d", len(descs), latestDescsCap)
	}
}
