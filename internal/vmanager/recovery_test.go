package vmanager

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/wal"
)

func openState(t testing.TB, dir string) *State {
	t.Helper()
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Recover(log, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.CloseWAL() })
	return s
}

// assignCommit appends size bytes to blob id, placed on R addresses a
// block that differ from version to version, and publishes them.
func assignCommit(t *testing.T, s *State, id blob.ID, size int64) blob.Version {
	t.Helper()
	h, _, err := s.LatestSince(id, 0, blob.NoVersion)
	if err != nil {
		t.Fatal(err)
	}
	m := h.Meta
	var replicas []string
	for i := range blob.Blocks(size, m.BlockSize) * int64(m.Replication) {
		replicas = append(replicas, fmt.Sprintf("p%d", (int64(len(s.Blobs()))+i)%7))
	}
	a, err := s.AssignVersion(id, blob.KindAppend, 0, size, 0, blob.NoVersion, replicas...)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(id, a.Version); err != nil {
		t.Fatal(err)
	}
	return a.Version
}

func TestRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openState(t, dir)
	m, err := s.CreateBlob(4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		assignCommit(t, s, m.ID, 4096)
	}
	// One aborted version in the middle of the line.
	a, err := s.AssignVersion(m.ID, blob.KindAppend, 0, 4096, 0, blob.NoVersion)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Abort(m.ID, a.Version); err != nil {
		t.Fatal(err)
	}
	assignCommit(t, s, m.ID, 4096)
	if _, err := s.Prune(m.ID, 3); err != nil {
		t.Fatal(err)
	}
	wantPub, wantSize, _ := latest(s, m.ID)
	_, wantDescs, _ := s.LatestSince(m.ID, 0, 0)
	s.CloseWAL()

	r := openState(t, dir)
	if _, descs, _ := r.LatestSince(m.ID, 0, 0); !slices.EqualFunc(descs, wantDescs, blob.WriteDesc.Equal) {
		t.Errorf("recovered history %+v, want %+v", descs, wantDescs)
	}
	h, _, err := r.LatestSince(m.ID, 0, blob.NoVersion)
	if err != nil {
		t.Fatalf("recovered state lost the blob: %v", err)
	}
	if h.Meta != m {
		t.Errorf("meta = %+v, want %+v", h.Meta, m)
	}
	pub, size, err := latest(r, m.ID)
	if err != nil || pub != wantPub || size != wantSize {
		t.Errorf("Latest = (%d, %d, %v), want (%d, %d)", pub, size, err, wantPub, wantSize)
	}
	if h, _, _ := r.LatestSince(m.ID, 0, 0); h.Oldest != 3 {
		t.Errorf("prune point = %d, want 3", h.Oldest)
	}
	if d := descOf(t, r, m.ID, a.Version); !d.Aborted {
		t.Errorf("aborted flag lost for version %d", a.Version)
	}
	// A new write after recovery continues the version line.
	v := assignCommit(t, r, m.ID, 4096)
	if pub, _, _ := latest(r, m.ID); pub != v {
		t.Errorf("post-recovery publish = %d, want %d", pub, v)
	}
}

func TestRecoverInFlightVersionFeedsJanitor(t *testing.T) {
	dir := t.TempDir()
	s := openState(t, dir)
	m, _ := s.CreateBlob(4096, 1)
	a, err := s.AssignVersion(m.ID, blob.KindAppend, 0, 4096, 7, blob.NoVersion)
	if err != nil {
		t.Fatal(err)
	}
	// The crash we simulate is of the *writer and manager together*,
	// after the assign was journaled.
	s.CloseWAL()

	r := openState(t, dir)
	exp := r.Expired(0)
	if len(exp) != 1 || exp[0].Blob != m.ID || exp[0].Version != a.Version {
		t.Fatalf("Expired after recovery = %+v, want the in-flight version %d", exp, a.Version)
	}
	// The janitor's abort path completes the line and publication advances.
	if err := r.Abort(m.ID, a.Version); err != nil {
		t.Fatal(err)
	}
	if pub, _, _ := latest(r, m.ID); pub != a.Version {
		t.Errorf("published = %d, want %d after janitor abort", pub, a.Version)
	}
}

func TestRecoverPreservesAssignTime(t *testing.T) {
	dir := t.TempDir()
	s := openState(t, dir)
	m, _ := s.CreateBlob(4096, 1)
	if _, err := s.AssignVersion(m.ID, blob.KindAppend, 0, 4096, 0, blob.NoVersion); err != nil {
		t.Fatal(err)
	}
	s.CloseWAL()

	time.Sleep(20 * time.Millisecond)
	r := openState(t, dir)
	// Age measured from the original assignment: the version must look
	// ~20ms old immediately after restart, not 0s old.
	if exp := r.Expired(10 * time.Millisecond); len(exp) != 1 {
		t.Errorf("Expired(10ms) = %+v; assign time was not preserved across recovery", exp)
	}
}

func TestRecoverIdempotentSecondReplay(t *testing.T) {
	dir := t.TempDir()
	s := openState(t, dir)
	m, _ := s.CreateBlob(4096, 1)
	for i := 0; i < 3; i++ {
		assignCommit(t, s, m.ID, 4096)
	}
	s.CloseWAL()

	// First recovery.
	r1 := openState(t, dir)
	pub1, size1, _ := latest(r1, m.ID)
	r1.CloseWAL()
	// Second recovery over the very same (untouched) log.
	r2 := openState(t, dir)
	pub2, size2, _ := latest(r2, m.ID)
	if pub1 != pub2 || size1 != size2 {
		t.Fatalf("second replay diverged: (%d,%d) vs (%d,%d)", pub1, size1, pub2, size2)
	}
	// Replaying the log into an already-recovered state must be a
	// no-op, not a corruption (records are applied idempotently).
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if err := log.Replay(func(p []byte, isSnap bool) error {
		if isSnap {
			return r2.loadSnapshot(p)
		}
		return r2.applyRecord(p)
	}); err != nil {
		t.Fatalf("replay onto recovered state: %v", err)
	}
	pub3, size3, _ := latest(r2, m.ID)
	if pub3 != pub1 || size3 != size1 {
		t.Errorf("double-applied state = (%d,%d), want (%d,%d)", pub3, size3, pub1, size1)
	}
}

func TestSnapshotCompactAndRecover(t *testing.T) {
	dir := t.TempDir()
	s := openState(t, dir)
	m, _ := s.CreateBlob(4096, 2)
	for i := 0; i < 4; i++ {
		assignCommit(t, s, m.ID, 4096)
	}
	if err := s.snapshot(); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot mutations live only in the record suffix.
	assignCommit(t, s, m.ID, 4096)
	in, err := s.AssignVersion(m.ID, blob.KindAppend, 0, 4096, 0, blob.NoVersion)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.log.Status(); st.SnapshotSeq == 0 || st.Snapshots != 1 {
		t.Errorf("snapshot not recorded in WAL status: %+v", st)
	}
	_, wantDescs, _ := s.LatestSince(m.ID, 0, 0)
	s.CloseWAL()

	r := openState(t, dir)
	if _, descs, _ := r.LatestSince(m.ID, 0, 0); !slices.EqualFunc(descs, wantDescs, blob.WriteDesc.Equal) || len(descs[0].Replicas) != 2 {
		t.Errorf("history recovered through a snapshot %+v, want %+v", descs, wantDescs)
	}
	pub, _, err := latest(r, m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if pub != 5 {
		t.Errorf("published after snapshot+suffix recovery = %d, want 5", pub)
	}
	if h, _, _ := r.LatestSince(m.ID, 0, blob.NoVersion); h.Meta.Replication != 2 {
		t.Errorf("meta lost through snapshot: %+v", h.Meta)
	}
	if exp := r.Expired(0); len(exp) != 1 || exp[0].Version != in.Version {
		t.Errorf("in-flight version %d lost through snapshot: %+v", in.Version, exp)
	}
}

func TestCommitIdempotent(t *testing.T) {
	dir := t.TempDir()
	s := openState(t, dir)
	m, _ := s.CreateBlob(4096, 1)
	v := assignCommit(t, s, m.ID, 4096)
	// A retried Publish across a manager restart re-sends the commit;
	// it must succeed, not error, and leave publication unchanged.
	if err := s.Commit(m.ID, v); err != nil {
		t.Fatalf("second commit of %d: %v", v, err)
	}
	if pub, _, _ := latest(s, m.ID); pub != v {
		t.Errorf("published = %d, want %d", pub, v)
	}
}

// TestMutationAfterCloseWALFails: a closed log stays attached, so a
// mutation after CloseWAL fails instead of being acknowledged without
// ever reaching the log, and the refused record changes nothing.
func TestMutationAfterCloseWALFails(t *testing.T) {
	s := openState(t, t.TempDir())
	m, err := s.CreateBlob(4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	assignCommit(t, s, m.ID, 4096)
	assignCommit(t, s, m.ID, 4096)
	in, err := s.AssignVersion(m.ID, blob.KindAppend, 0, 4096, 0, blob.NoVersion)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	before := view(s)

	if _, err := s.AssignVersion(m.ID, blob.KindAppend, 0, 4096, 0, blob.NoVersion); err == nil {
		t.Fatal("AssignVersion after CloseWAL succeeded; the assignment was never journaled")
	}
	if exp := s.Expired(0); len(exp) != 1 || exp[0].Version != in.Version {
		t.Errorf("in flight after a refused assign: %+v, want only version %d", exp, in.Version)
	}
	if _, err := s.CreateBlob(4096, 1); err == nil {
		t.Fatal("CreateBlob after CloseWAL succeeded")
	}
	if ids := s.Blobs(); !slices.Equal(ids, []blob.ID{m.ID}) {
		t.Errorf("blobs after a refused create: %v, want [%d]", ids, m.ID)
	}
	if _, err := s.Prune(m.ID, 2); err == nil {
		t.Fatal("Prune after CloseWAL succeeded")
	}
	if h, _, _ := s.LatestSince(m.ID, 0, blob.NoVersion); h.Oldest != 1 {
		t.Errorf("prune point after a refused prune: %d, want 1", h.Oldest)
	}
	if err := s.Commit(m.ID, in.Version); err == nil {
		t.Fatal("Commit after CloseWAL succeeded")
	}
	if err := s.Abort(m.ID, in.Version); err == nil {
		t.Fatal("Abort after CloseWAL succeeded")
	}
	if after := view(s); after != before {
		t.Errorf("refused mutations changed the state:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

func TestNoWALStateUnchanged(t *testing.T) {
	s := NewState(nil)
	m, err := s.CreateBlob(4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	assignCommit(t, s, m.ID, 4096)
	if pub, _, err := latest(s, m.ID); err != nil || pub != 1 {
		t.Errorf("published without log = (%d, %v), want (1, nil)", pub, err)
	}
}

// TestVersionLogCompactsItself: 2,000 published versions on small
// segments snapshot the manager without anyone asking, and the
// compacted log recovers the whole publication line.
func TestVersionLogCompactsItself(t *testing.T) {
	dir := t.TempDir()
	open := func() *State {
		log, err := wal.Open(dir, wal.Options{SegmentBytes: 4096})
		if err != nil {
			t.Fatal(err)
		}
		s, err := Recover(log, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.CloseWAL() })
		return s
	}
	s := open()
	m, err := s.CreateBlob(4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	for range 2000 {
		assignCommit(t, s, m.ID, 4096)
	}
	if err := s.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if st := s.log.Status(); st.Snapshots < 1 || st.CompactFailures != 0 {
		t.Errorf("status after 2000 versions = %+v, want a snapshot and no failure", st)
	}

	r := open()
	if pub, size, err := latest(r, m.ID); err != nil || pub != 2000 || size != 2000*4096 {
		t.Errorf("recovered latest = (%d, %d, %v), want (2000, %d, nil)", pub, size, err, 2000*4096)
	}
	if v := assignCommit(t, r, m.ID, 4096); v != 2001 {
		t.Errorf("first version after recovery = %d, want 2001", v)
	}
}

// TestAbortIsOneLogSync: an abort marks and publishes its version under
// one record, so it waits for one fsync.
func TestAbortIsOneLogSync(t *testing.T) {
	s := openState(t, t.TempDir())
	m, _ := s.CreateBlob(4096, 1)
	a, err := s.AssignVersion(m.ID, blob.KindAppend, 0, 4096, 0, blob.NoVersion)
	if err != nil {
		t.Fatal(err)
	}
	before := s.log.Status().Syncs
	if err := s.Abort(m.ID, a.Version); err != nil {
		t.Fatal(err)
	}
	if got := s.log.Status().Syncs - before; got != 1 {
		t.Errorf("the abort issued %d fsyncs, want 1", got)
	}
	if pub, _, _ := latest(s, m.ID); pub != a.Version {
		t.Errorf("published = %d after the abort, want %d", pub, a.Version)
	}
}

// TestRecoverAbortRecord: an abort record publishes its version on
// replay, whether a commit record follows it (the two-record abort of
// older logs) or not (an abort whose publish never reached the log).
func TestRecoverAbortRecord(t *testing.T) {
	m := blob.Meta{ID: 1, BlockSize: 4096, Replication: 1}
	d := blob.WriteDesc{Version: 1, Len: 4096, SizeAfter: 4096, Kind: blob.KindAppend, Nonce: 9}
	for _, tc := range []struct {
		name string
		tail [][]byte
	}{
		{"abort alone", [][]byte{encodeVersionRec(recAbort, m.ID, 1)}},
		{"abort then commit", [][]byte{encodeVersionRec(recAbort, m.ID, 1), encodeVersionRec(recCommit, m.ID, 1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			log, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range append([][]byte{encodeCreate(m), encodeAssign(m.ID, d, time.Now())}, tc.tail...) {
				if err := log.AppendSync(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}
			r := openState(t, dir)
			if pub, size, err := latest(r, m.ID); err != nil || pub != 1 || size != 4096 {
				t.Errorf("recovered Latest = (%d, %d, %v), want (1, 4096)", pub, size, err)
			}
			if got := descOf(t, r, m.ID, 1); !got.Aborted {
				t.Errorf("recovered version 1 = %+v; want it aborted", got)
			}
			if exp := r.Expired(0); len(exp) != 0 {
				t.Errorf("recovered in-flight versions %+v, want none", exp)
			}
			if err := r.Commit(m.ID, 1); !errors.Is(err, ErrAborted) {
				t.Errorf("commit after recovery = %v, want ErrAborted", err)
			}
		})
	}
}

// TestCreatesWhileCompacting: creates that re-arm minting under their
// stripe lock run beside the log's background snapshots, which take
// every stripe lock and the minting lock, and the log recovers every
// blob they acknowledged.
func TestCreatesWhileCompacting(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Recover(log, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 200 {
				if _, err := s.CreateBlob(4096, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := s.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if st := s.log.Status(); st.Snapshots == 0 {
		t.Errorf("no snapshot ran beside the creates: %+v", st)
	}
	if got := openState(t, dir).Blobs(); !slices.Equal(got, s.Blobs()) || len(got) != 800 {
		t.Errorf("recovered %d blobs, want the 800 created", len(got))
	}
}
