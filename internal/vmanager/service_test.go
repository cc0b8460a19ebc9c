package vmanager

import (
	"context"
	"errors"
	"testing"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/rpc"
	"blobseer/internal/wire"
)

func startVM(t *testing.T) *Client {
	t.Helper()
	n := rpc.NewInprocNetwork()
	svc := NewService(NewState(nil))
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
	if ds, pub, err := readHistory(ctx, c, m.ID, 0); err != nil || len(ds) != 1 || pub != 1 {
		t.Fatalf("history = %+v through v%d, %v", ds, pub, err)
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
	svc := NewService(NewState(nil))
	defer svc.StopJanitor()
	s := svc.State()
	m, _ := s.CreateBlob(B, 1)
	s.AssignVersion(m.ID, blob.KindAppend, 0, B, 1, 0)

	svc.StartJanitor(10*time.Millisecond, 5*time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if v, _, _ := s.Latest(m.ID); v == 1 {
			break // janitor aborted + published
		}
		if time.Now().After(deadline) {
			t.Fatal("janitor never reclaimed the stuck write")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if d, _ := s.VersionInfo(m.ID, 1); !d.Aborted {
		t.Error("stuck write not marked aborted")
	}
}

// readHistory reads the published history of id after since through
// the client's pager, and the version it stopped at.
func readHistory(ctx context.Context, c *Client, id blob.ID, since blob.Version) ([]blob.WriteDesc, blob.Version, error) {
	var ds []blob.WriteDesc
	pub, _, err := c.LatestSince(ctx, id, since, func(page []blob.WriteDesc) error {
		ds = append(ds, page...)
		return nil
	})
	return ds, pub, err
}

// TestLatestSinceCarriesPublishedDescriptors: a pinning Latest returns
// the descriptors of (since, published] in the same reply — published
// versions only, none to a caller already there — and the 8-byte
// request of a size query is answered with version and size alone.
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

	pages := 0
	v, size, err := c.LatestSince(ctx, m.ID, 1, func(descs []blob.WriteDesc) error {
		pages++
		if len(descs) != 2 || descs[0].Version != 2 || descs[1].Version != 3 || descs[1].SizeAfter != 3*B {
			t.Errorf("descriptors since 1 = %+v, want exactly versions 2 and 3 (4 is unpublished)", descs)
		}
		return nil
	})
	if err != nil || v != 3 || size != 3*B || pages != 1 {
		t.Fatalf("LatestSince = v%d size %d in %d pages, %v", v, size, pages, err)
	}
	for _, since := range []blob.Version{3, 4, 99} {
		if ds, pub, err := readHistory(ctx, c, m.ID, since); err != nil || len(ds) != 0 || pub != 3 {
			t.Errorf("since %d: %d descriptors through v%d, %v; want none", since, len(ds), pub, err)
		}
	}

	// A size query's request is the blob ID alone; the reply must be
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
}

// TestLatestSincePagesALongHistory: past the cap a reply carries exactly
// the cap, and the next page the rest. The client reads the whole
// history in two calls, each page no larger than the cap, and stops at
// the version its first reply published although a writer goes on
// publishing between the pages.
func TestLatestSincePagesALongHistory(t *testing.T) {
	s := NewState(nil)
	big, _ := s.CreateBlob(B, 1)
	publish := func() {
		t.Helper()
		a, err := s.AssignVersion(big.ID, blob.KindAppend, 0, B, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(big.ID, a.Version); err != nil {
			t.Fatal(err)
		}
	}
	const total = latestDescsCap + 10
	for i := 0; i < total; i++ {
		publish()
	}
	if _, _, descs, _ := s.LatestSince(big.ID, 0); len(descs) != latestDescsCap || descs[0].Version != 1 {
		t.Errorf("a gap of %d got %d descriptors, want the first %d", total, len(descs), latestDescsCap)
	}
	if _, _, descs, _ := s.LatestSince(big.ID, latestDescsCap); len(descs) != 10 || descs[0].Version != latestDescsCap+1 {
		t.Errorf("the next page got %d descriptors, want the last 10", len(descs))
	}
	if _, _, descs, _ := s.LatestSince(big.ID, 10); len(descs) != latestDescsCap {
		t.Errorf("a gap of exactly the cap got %d descriptors, want %d", len(descs), latestDescsCap)
	}

	svc := NewService(s)
	n := rpc.NewInprocNetwork()
	lis, err := n.Listen("vmanager")
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(svc.Mux())
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	pool := rpc.NewPool(n.Dial)
	t.Cleanup(pool.Close)
	c := NewClient(pool, "vmanager")

	var got []blob.WriteDesc
	before := svc.Ops().Latest
	pub, _, err := c.LatestSince(context.Background(), big.ID, 0, func(page []blob.WriteDesc) error {
		if len(page) > latestDescsCap {
			t.Errorf("a page of %d descriptors, more than the cap %d", len(page), latestDescsCap)
		}
		got = append(got, page...)
		for range 5 {
			publish() // writers keep publishing while the client pages
		}
		return nil
	})
	if err != nil || pub != total {
		t.Fatalf("paged read: published v%d, %v; want v%d", pub, err, total)
	}
	if calls := svc.Ops().Latest - before; calls != 2 {
		t.Errorf("reading %d descriptors took %d Latest calls, want 2", total, calls)
	}
	if len(got) != total {
		t.Fatalf("paged read got %d descriptors, want %d", len(got), total)
	}
	for i, d := range got {
		if d.Version != blob.Version(i+1) {
			t.Fatalf("descriptor %d is version %d", i, d.Version)
		}
	}
	stop := errors.New("stop")
	if _, _, err := c.LatestSince(context.Background(), big.ID, 0, func([]blob.WriteDesc) error { return stop }); !errors.Is(err, stop) {
		t.Errorf("an error from the page function came back as %v", err)
	}
}

// TestCommitOfAbortedVersionFails: once the janitor has aborted a
// version, its writer's commit fails with ErrAborted, at the State and
// over the wire, and the version stays aborted; the commit of a version
// that committed normally stays idempotent.
func TestCommitOfAbortedVersionFails(t *testing.T) {
	s := NewState(nil)
	m := newBlob(t, s)
	a, err := s.AssignVersion(m.ID, blob.KindAppend, 0, B, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Abort(m.ID, a.Version); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(m.ID, a.Version); !errors.Is(err, ErrAborted) {
		t.Errorf("commit after abort = %v, want ErrAborted", err)
	}
	if d, err := s.VersionInfo(m.ID, a.Version); err != nil || !d.Aborted {
		t.Errorf("VersionInfo = %+v, %v; want aborted", d, err)
	}

	c := startVM(t)
	ctx := context.Background()
	cm, err := c.CreateBlob(ctx, B, 1)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := c.AssignVersion(ctx, cm.ID, blob.KindAppend, 0, B, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := c.Commit(ctx, cm.ID, ok.Version); err != nil {
			t.Fatalf("commit %d of a committed version = %v, want idempotent", i+1, err)
		}
	}
	ca, err := c.AssignVersion(ctx, cm.ID, blob.KindAppend, 0, B, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Abort(ctx, cm.ID, ca.Version); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(ctx, cm.ID, ca.Version); !errors.Is(err, ErrAborted) {
		t.Errorf("commit after abort over RPC = %v, want ErrAborted", err)
	}
}
