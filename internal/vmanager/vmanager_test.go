package vmanager

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/mdtree"
	"blobseer/internal/util"
)

const B = 64 * 1024 // block size for these tests

func newBlob(t *testing.T, s *State) blob.Meta {
	t.Helper()
	m, err := s.CreateBlob(B, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCreateBlob(t *testing.T) {
	s := NewState(nil)
	m1 := newBlob(t, s)
	m2 := newBlob(t, s)
	if m1.ID == m2.ID {
		t.Error("duplicate blob IDs")
	}
	if _, err := s.CreateBlob(0, 1); err == nil {
		t.Error("invalid block size accepted")
	}
	got, err := s.GetMeta(m1.ID)
	if err != nil || got.BlockSize != B {
		t.Errorf("GetMeta = %+v, %v", got, err)
	}
	if _, err := s.GetMeta(999); !errors.Is(err, ErrUnknownBlob) {
		t.Errorf("unknown blob err = %v", err)
	}
	if len(s.Blobs()) != 2 {
		t.Error("Blobs() wrong")
	}
}

func TestAssignSequentialVersions(t *testing.T) {
	s := NewState(nil)
	m := newBlob(t, s)
	a1, err := s.AssignVersion(m.ID, blob.KindAppend, 0, 2*B, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Version != 1 || a1.Off != 0 || a1.Size != 2*B {
		t.Errorf("a1 = %+v", a1)
	}
	// Second append chains onto the first even though it is uncommitted
	// (the paper: "the writing of this snapshot may still be in
	// progress").
	a2, err := s.AssignVersion(m.ID, blob.KindAppend, 0, B, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Version != 2 || a2.Off != 2*B || a2.Size != 3*B {
		t.Errorf("a2 = %+v", a2)
	}
	if len(a2.Descs) != 2 {
		t.Errorf("hint has %d descs, want 2 (including in-progress v1)", len(a2.Descs))
	}
	// Delta fetch: client already knows version 1.
	a3, err := s.AssignVersion(m.ID, blob.KindWrite, 0, B, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a3.Descs) != 2 || a3.Descs[0].Version != 2 {
		t.Errorf("delta descs = %+v", a3.Descs)
	}
}

func TestAssignValidation(t *testing.T) {
	s := NewState(nil)
	m := newBlob(t, s)
	if _, err := s.AssignVersion(m.ID, blob.KindWrite, 5, B, 1, 0); !errors.Is(err, ErrUnaligned) {
		t.Errorf("unaligned offset err = %v", err)
	}
	if _, err := s.AssignVersion(m.ID, blob.KindWrite, 0, 0, 1, 0); !errors.Is(err, ErrBadRange) {
		t.Errorf("empty write err = %v", err)
	}
	if _, err := s.AssignVersion(999, blob.KindWrite, 0, B, 1, 0); !errors.Is(err, ErrUnknownBlob) {
		t.Errorf("unknown blob err = %v", err)
	}
	// Build a 4-block blob, then try a mid-blob partial write.
	if _, err := s.AssignVersion(m.ID, blob.KindAppend, 0, 4*B, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AssignVersion(m.ID, blob.KindWrite, 0, B/2, 2, 0); !errors.Is(err, ErrBadRange) {
		t.Errorf("mid-blob partial write err = %v", err)
	}
	// A partial write that reaches EOF is fine.
	if _, err := s.AssignVersion(m.ID, blob.KindWrite, 3*B, B/2+B, 3, 0); err != nil {
		t.Errorf("EOF-reaching partial write rejected: %v", err)
	}
	// Appending onto the now-unaligned EOF must fail with ErrUnaligned.
	if _, err := s.AssignVersion(m.ID, blob.KindAppend, 0, B, 4, 0); !errors.Is(err, ErrUnaligned) {
		t.Errorf("append on unaligned EOF err = %v", err)
	}
}

func TestPublicationOrdering(t *testing.T) {
	// The linearizability gate: version 2 committing before version 1
	// must NOT become visible until version 1 commits too.
	s := NewState(nil)
	m := newBlob(t, s)
	s.AssignVersion(m.ID, blob.KindAppend, 0, B, 1, 0)
	s.AssignVersion(m.ID, blob.KindAppend, 0, B, 2, 0)

	if err := s.Commit(m.ID, 2); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := s.Latest(m.ID); v != 0 {
		t.Fatalf("published %d before v1 committed", v)
	}
	if err := s.Commit(m.ID, 1); err != nil {
		t.Fatal(err)
	}
	v, size, _ := s.Latest(m.ID)
	if v != 2 || size != 2*B {
		t.Errorf("published = %d (size %d), want 2 (%d)", v, size, 2*B)
	}
}

func TestCommitValidation(t *testing.T) {
	s := NewState(nil)
	m := newBlob(t, s)
	if err := s.Commit(m.ID, 1); !errors.Is(err, ErrBadVersion) {
		t.Errorf("commit of unassigned version err = %v", err)
	}
	if err := s.Commit(999, 1); !errors.Is(err, ErrUnknownBlob) {
		t.Errorf("commit on unknown blob err = %v", err)
	}
	if err := s.Abort(m.ID, 3); !errors.Is(err, ErrBadVersion) {
		t.Errorf("abort of unassigned version err = %v", err)
	}
}

func TestWaitPublished(t *testing.T) {
	s := NewState(nil)
	m := newBlob(t, s)
	s.AssignVersion(m.ID, blob.KindAppend, 0, B, 1, 0)

	done := make(chan blob.Version, 1)
	go func() {
		if err := s.WaitPublished(m.ID, 1, 5*time.Second); err != nil {
			done <- 0
			return
		}
		v, _, _ := s.Latest(m.ID)
		done <- v
	}()
	time.Sleep(10 * time.Millisecond)
	if err := s.Commit(m.ID, 1); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-done:
		if v != 1 {
			t.Errorf("waiter got version %d", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never woke")
	}
}

func TestWaitPublishedTimeout(t *testing.T) {
	s := NewState(nil)
	m := newBlob(t, s)
	s.AssignVersion(m.ID, blob.KindAppend, 0, B, 1, 0)
	if err := s.WaitPublished(m.ID, 1, 20*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
	// Already-published waits return immediately.
	s.Commit(m.ID, 1)
	if err := s.WaitPublished(m.ID, 1, 0); err != nil {
		t.Errorf("immediate wait = %v", err)
	}
}

// ownersOf returns the block index a reader of m's published history
// builds.
func ownersOf(t *testing.T, s *State, m blob.Meta) *mdtree.Owners {
	t.Helper()
	_, descs, err := s.LatestSince(m.ID, 0, blob.NoVersion)
	if err != nil {
		t.Fatal(err)
	}
	var o mdtree.Owners
	if err := o.Extend(m, descs); err != nil {
		t.Fatal(err)
	}
	return &o
}

// TestAbortedVersionNeedsNoMetadata: writer A (v1) dies after version
// assignment and writer B (v2) wove references to v1's planned nodes.
// Aborting v1 writes no node, and v2's snapshot reads through the
// index with v1's range as a hole and B's block intact.
func TestAbortedVersionNeedsNoMetadata(t *testing.T) {
	st := mdtree.NewMemStore()
	s := NewState(nil)
	m, err := s.CreateBlob(B, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// v1 assigned (writer then dies before weaving metadata).
	a1, err := s.AssignVersion(m.ID, blob.KindAppend, 0, 2*B, 0xdead, 0, "p", "q")
	if err != nil {
		t.Fatal(err)
	}
	// v2 assigned and fully written (weaves against v1's planned nodes).
	a2, err := s.AssignVersion(m.ID, blob.KindAppend, 0, B, 0xbeef, 0, "p")
	if err != nil {
		t.Fatal(err)
	}
	h := &blob.History{}
	if err := h.Extend(a2.Descs); err != nil {
		t.Fatal(err)
	}
	refs := []mdtree.BlockRef{{Key: blob.BlockKey{Blob: m.ID, Nonce: 0xbeef, Seq: 0}, Providers: []string{"p"}, Len: B}}
	if _, err := mdtree.Build(ctx, st, m, h, a2.Version, refs); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(m.ID, a2.Version); err != nil {
		t.Fatal(err)
	}
	// Nothing published yet: v1 blocks the line.
	if v, _, _ := s.Latest(m.ID); v != 0 {
		t.Fatalf("published %d too early", v)
	}
	// The janitor (here: direct call) aborts v1.
	nodes := st.Len()
	if err := s.Abort(m.ID, a1.Version); err != nil {
		t.Fatal(err)
	}
	if st.Len() != nodes {
		t.Errorf("the store held %d nodes before the abort, %d after", nodes, st.Len())
	}
	v, size, _ := s.Latest(m.ID)
	if v != 2 || size != 3*B {
		t.Fatalf("after the abort: published %d size %d", v, size)
	}
	// v2's snapshot resolves: blocks 0-1 a hole (aborted), block 2 B's.
	ext, err := ownersOf(t, s, m).Resolve(m, 2, 3*B, blob.Range{Len: 3 * B}, new(mdtree.Scratch))
	if err != nil {
		t.Fatal(err)
	}
	if len(ext) != 2 || ext[0].HasData || ext[0].Len != 2*B ||
		!ext[1].HasData || ext[1].FileOff != 2*B || ext[1].Block.Key != refs[0].Key {
		t.Errorf("v2 resolves to %+v, want a hole over v1's blocks, then B's block", ext)
	}
	// The aborted version is marked in the history hint.
	if d := descOf(t, s, m.ID, 1); !d.Aborted {
		t.Error("aborted descriptor not marked")
	}
}

// TestLateWriterOfAnAbortedVersionStaysHidden: the janitor aborts a
// slow writer's one-block overwrite, then the writer's metadata lands.
// Its commit fails, and the index must go on reading the block as a
// hole: nothing stored in the metadata store changes what an aborted
// version reads.
func TestLateWriterOfAnAbortedVersionStaysHidden(t *testing.T) {
	ctx, st, s := context.Background(), mdtree.NewMemStore(), NewState(nil)
	m := newBlob(t, s)
	build := func(a Assignment, nonce uint64, provider string) {
		t.Helper()
		h := &blob.History{}
		if err := h.Extend(a.Descs); err != nil {
			t.Fatal(err)
		}
		refs := []mdtree.BlockRef{{Key: blob.BlockKey{Blob: m.ID, Nonce: nonce, Seq: 0}, Providers: []string{provider}, Len: B}}
		if _, err := mdtree.Build(ctx, st, m, h, a.Version, refs); err != nil {
			t.Fatal(err)
		}
	}
	a1, err := s.AssignVersion(m.ID, blob.KindAppend, 0, B, 1, 0, "first-writer")
	if err != nil {
		t.Fatal(err)
	}
	build(a1, 1, "first-writer")
	if err := s.Commit(m.ID, a1.Version); err != nil {
		t.Fatal(err)
	}
	a2, err := s.AssignVersion(m.ID, blob.KindWrite, 0, B, 2, 0, "aborted-writer")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Abort(m.ID, a2.Version); err != nil {
		t.Fatal(err)
	}
	build(a2, 2, "aborted-writer")
	if err := s.Commit(m.ID, a2.Version); !errors.Is(err, ErrAborted) {
		t.Fatalf("commit of the aborted version = %v, want ErrAborted", err)
	}
	ext, err := ownersOf(t, s, m).Resolve(m, a2.Version, B, blob.Range{Len: B}, new(mdtree.Scratch))
	if err != nil {
		t.Fatal(err)
	}
	if len(ext) != 1 || ext[0].HasData {
		t.Errorf("v2 block 0 resolves to %+v, want a hole", ext)
	}
}

func TestAbortCommittedVersionRejected(t *testing.T) {
	s := NewState(nil)
	m := newBlob(t, s)
	s.AssignVersion(m.ID, blob.KindAppend, 0, B, 1, 0)
	s.Commit(m.ID, 1)
	if err := s.Abort(m.ID, 1); err == nil {
		t.Error("abort of committed version succeeded")
	}
}

func TestExpired(t *testing.T) {
	s := NewState(nil)
	m := newBlob(t, s)
	s.AssignVersion(m.ID, blob.KindAppend, 0, B, 1, 0)
	if got := s.Expired(time.Hour); len(got) != 0 {
		t.Errorf("fresh write already expired: %v", got)
	}
	time.Sleep(5 * time.Millisecond)
	got := s.Expired(time.Millisecond)
	if len(got) != 1 || got[0].Version != 1 {
		t.Errorf("expired = %v", got)
	}
	s.Commit(m.ID, 1)
	if got := s.Expired(0); len(got) != 0 {
		t.Errorf("committed write still tracked: %v", got)
	}
}

func TestConcurrentAssignDistinctVersions(t *testing.T) {
	s := NewState(nil)
	m := newBlob(t, s)
	const N = 64
	var wg sync.WaitGroup
	versions := make([]blob.Version, N)
	offsets := make([]int64, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := s.AssignVersion(m.ID, blob.KindAppend, 0, B, uint64(i), 0)
			if err != nil {
				t.Error(err)
				return
			}
			versions[i] = a.Version
			offsets[i] = a.Off
		}(i)
	}
	wg.Wait()
	seenV := map[blob.Version]bool{}
	seenOff := map[int64]bool{}
	for i := 0; i < N; i++ {
		if seenV[versions[i]] || seenOff[offsets[i]] {
			t.Fatalf("duplicate version/offset: v=%d off=%d", versions[i], offsets[i])
		}
		seenV[versions[i]] = true
		seenOff[offsets[i]] = true
	}
	// Offsets must be a permutation of {0, B, ..., (N-1)B}: concurrent
	// appends serialize into disjoint ranges.
	for off := int64(0); off < N*B; off += B {
		if !seenOff[off] {
			t.Errorf("offset %d never assigned", off)
		}
	}
}

// descOf returns the descriptor of published version v.
func descOf(t *testing.T, s *State, id blob.ID, v blob.Version) blob.WriteDesc {
	t.Helper()
	_, descs, err := s.LatestSince(id, v-1, blob.NoVersion)
	if err != nil || len(descs) == 0 || descs[0].Version != v {
		t.Fatalf("descriptor of v%d: %+v, %v", v, descs, err)
	}
	return descs[0]
}

// TestHeadSizeAt: the head carries the meta, the published version and
// the size at the version asked for; at NoVersion, and at a version not
// yet published, the size at the published version.
func TestHeadSizeAt(t *testing.T) {
	s := NewState(nil)
	m := newBlob(t, s)
	for _, n := range []int64{B, B / 2} {
		a, _ := s.AssignVersion(m.ID, blob.KindAppend, 0, n, 7, 0)
		if err := s.Commit(m.ID, a.Version); err != nil {
			t.Fatal(err)
		}
	}
	s.AssignVersion(m.ID, blob.KindWrite, 2*B, B, 8, 0) // v3 stays in flight
	for at, want := range map[blob.Version]int64{1: B, 2: B + B/2, blob.NoVersion: B + B/2, 3: B + B/2, 9: B + B/2} {
		h, descs, err := s.LatestSince(m.ID, 2, at)
		if err != nil || h.Meta != m || h.Published != 2 || h.Oldest != 1 || h.Size != want || len(descs) != 0 {
			t.Errorf("head at v%d = %+v with %d descriptors, %v; want size %d", at, h, len(descs), err, want)
		}
	}
	if _, _, err := s.LatestSince(99, 0, 0); !errors.Is(err, ErrUnknownBlob) {
		t.Errorf("head of an unknown blob: %v", err)
	}
}

func TestRandomCommitOrderPublishesInOrder(t *testing.T) {
	// Property-style check: whatever order commits arrive in, the
	// published version only advances over fully-committed prefixes.
	s := NewState(nil)
	m := newBlob(t, s)
	const N = 20
	for i := 0; i < N; i++ {
		if _, err := s.AssignVersion(m.ID, blob.KindAppend, 0, B, uint64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	rng := util.NewSplitMix64(99)
	order := rng.Perm(N)
	committed := make([]bool, N+1)
	for _, idx := range order {
		v := blob.Version(idx + 1)
		if err := s.Commit(m.ID, v); err != nil {
			t.Fatal(err)
		}
		committed[v] = true
		want := blob.Version(0)
		for w := 1; w <= N && committed[w]; w++ {
			want = blob.Version(w)
		}
		got, _, _ := s.Latest(m.ID)
		if got != want {
			t.Fatalf("after commit %d: published %d, want %d", v, got, want)
		}
	}
}

// TestWaitPublishedTimeoutDeregistersWaiter is the regression pin for
// the waiter leak: a timed-out WaitPublished must remove its slot from
// the waiter list, or a client polling with short timeouts grows the
// slice (and leaks a channel) on every call until publication.
func TestWaitPublishedTimeoutDeregistersWaiter(t *testing.T) {
	s := NewState(nil)
	m := newBlob(t, s)
	s.AssignVersion(m.ID, blob.KindAppend, 0, B, 1, 0)

	for i := 0; i < 25; i++ {
		if err := s.WaitPublished(m.ID, 1, time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Fatalf("poll %d err = %v, want ErrTimeout", i, err)
		}
	}
	if n := s.PendingWaiters(m.ID); n != 0 {
		t.Fatalf("%d waiters still registered after timed-out polls, want 0", n)
	}

	// A live waiter still counts, and publication still wakes it.
	done := make(chan error, 1)
	go func() {
		done <- s.WaitPublished(m.ID, 1, 5*time.Second)
	}()
	for i := 0; i < 100 && s.PendingWaiters(m.ID) == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := s.PendingWaiters(m.ID); n != 1 {
		t.Fatalf("live waiter not registered (n=%d)", n)
	}
	if err := s.Commit(m.ID, 1); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("waiter err = %v", err)
	}
	if n := s.PendingWaiters(m.ID); n != 0 {
		t.Fatalf("%d waiters left after publication, want 0", n)
	}
}
