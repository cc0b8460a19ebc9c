package vmanager

import (
	"context"
	"errors"
	"fmt"
	"strings"
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
	got, err := c.Latest(ctx, m.ID)
	if err != nil || got.Meta != m || got.Published != 0 || got.Size != 0 {
		t.Fatalf("head of a new blob = %+v, %v", got, err)
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
	if h, err := c.Latest(ctx, m.ID); err != nil || h.Published != 1 || h.Size != 2*B {
		t.Fatalf("Latest = %+v, %v", h, err)
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

	if _, err := c.Latest(ctx, 42); !errors.Is(err, ErrUnknownBlob) {
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

// TestClientErrorKeepsTheDetail: a sentinel crosses the wire with the
// handler's whole message, here the version ErrBadVersion was about.
func TestClientErrorKeepsTheDetail(t *testing.T) {
	c := startVM(t)
	ctx := context.Background()
	m, _ := c.CreateBlob(ctx, B, 1)
	err := c.Commit(ctx, m.ID, 7)
	if !errors.Is(err, ErrBadVersion) || !strings.Contains(err.Error(), ErrBadVersion.Error()+": 7") {
		t.Errorf("commit of unassigned version 7 over RPC = %v, want ErrBadVersion naming 7", err)
	}
}

func TestClientWaitPublished(t *testing.T) {
	c := startVM(t)
	ctx := context.Background()
	m, _ := c.CreateBlob(ctx, B, 1)
	a, _ := c.AssignVersion(ctx, m.ID, blob.KindAppend, 0, B, 1, 0)

	// The answer is the head once the version publishes, and the page
	// of history it asked for.
	done := make(chan error, 1)
	go func() {
		var page []blob.WriteDesc
		h, err := c.WaitPublished(ctx, m.ID, 0, a.Version, 5*time.Second, func(_ Head, descs []blob.WriteDesc) error {
			page = descs
			return nil
		})
		if err == nil && (h.Published != a.Version || h.Size != B || h.Meta != m || len(page) != 1 || page[0].Nonce != 1) {
			err = fmt.Errorf("wait answered %+v with %+v", h, page)
		}
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
	if _, err := c.WaitPublished(ctx, m.ID, 0, 2, 20*time.Millisecond, nil); !errors.Is(err, ErrTimeout) {
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
		if v, _, _ := latest(s, m.ID); v == 1 {
			break // janitor aborted + published
		}
		if time.Now().After(deadline) {
			t.Fatal("janitor never reclaimed the stuck write")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if d := descOf(t, s, m.ID, 1); !d.Aborted {
		t.Error("stuck write not marked aborted")
	}
}

// readHistory reads the published history of id after since through
// the client's pager, and the version it stopped at.
func readHistory(ctx context.Context, c *Client, id blob.ID, since blob.Version) ([]blob.WriteDesc, blob.Version, error) {
	var ds []blob.WriteDesc
	h, err := c.LatestSince(ctx, id, since, blob.NoVersion, func(_ Head, page []blob.WriteDesc) error {
		ds = append(ds, page...)
		return nil
	})
	return ds, h.Published, err
}

// TestLatestSinceCarriesPublishedDescriptors: a pinning Latest returns
// the descriptors of (since, published] in the same reply as the head —
// published versions only, none to a caller already there — and a
// caller that asks for the head alone gets the head and an empty page.
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
	h, err := c.LatestSince(ctx, m.ID, 1, 2, func(h Head, descs []blob.WriteDesc) error {
		pages++
		if h.Published != 3 || len(descs) != 2 || descs[0].Version != 2 || descs[1].Version != 3 || descs[1].SizeAfter != 3*B {
			t.Errorf("descriptors since 1 = %+v under %+v, want exactly versions 2 and 3 (4 is unpublished)", descs, h)
		}
		return nil
	})
	if err != nil || h.Published != 3 || h.Size != 2*B || h.Meta != m || pages != 1 {
		t.Fatalf("LatestSince = %+v in %d pages, %v", h, pages, err)
	}
	for _, since := range []blob.Version{3, 4, 99} {
		if ds, pub, err := readHistory(ctx, c, m.ID, since); err != nil || len(ds) != 0 || pub != 3 {
			t.Errorf("since %d: %d descriptors through v%d, %v; want none", since, len(ds), pub, err)
		}
	}

	// A request from past the published version is answered with the
	// head and an empty page.
	err = c.call(ctx, 0, mLatest, 24, func(b *wire.Buffer) {
		b.U64(uint64(m.ID))
		b.U64(3)
		b.U64(0)
	}, func(p []byte) error {
		if len(p) != headWireSize+8 { // an empty address table, no descriptor
			t.Errorf("a head-only reply of %d bytes, want %d", len(p), headWireSize+8)
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
	if _, descs, _ := s.LatestSince(big.ID, 0, 0); len(descs) != latestDescsCap || descs[0].Version != 1 {
		t.Errorf("a gap of %d got %d descriptors, want the first %d", total, len(descs), latestDescsCap)
	}
	if _, descs, _ := s.LatestSince(big.ID, latestDescsCap, 0); len(descs) != 10 || descs[0].Version != latestDescsCap+1 {
		t.Errorf("the next page got %d descriptors, want the last 10", len(descs))
	}
	if _, descs, _ := s.LatestSince(big.ID, 10, 0); len(descs) != latestDescsCap {
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
	h, err := c.LatestSince(context.Background(), big.ID, 0, 0, func(_ Head, page []blob.WriteDesc) error {
		if len(page) > latestDescsCap {
			t.Errorf("a page of %d descriptors, more than the cap %d", len(page), latestDescsCap)
		}
		got = append(got, page...)
		for range 5 {
			publish() // writers keep publishing while the client pages
		}
		return nil
	})
	if err != nil || h.Published != total {
		t.Fatalf("paged read: published v%d, %v; want v%d", h.Published, err, total)
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
	if _, err := c.LatestSince(context.Background(), big.ID, 0, 0, func(Head, []blob.WriteDesc) error { return stop }); !errors.Is(err, stop) {
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
	if d := descOf(t, s, m.ID, a.Version); !d.Aborted {
		t.Errorf("descriptor = %+v; want aborted", d)
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
