package vmanager

import (
	"testing"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/wal"
)

func openState(t *testing.T, dir string) *State {
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

func assignCommit(t *testing.T, s *State, id blob.ID, size int64) blob.Version {
	t.Helper()
	a, err := s.AssignVersion(id, blob.KindAppend, 0, size, 0, blob.NoVersion)
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
	wantPub, wantSize, _ := s.Latest(m.ID)
	s.CloseWAL()

	r := openState(t, dir)
	meta, err := r.GetMeta(m.ID)
	if err != nil {
		t.Fatalf("recovered state lost the blob: %v", err)
	}
	if meta != m {
		t.Errorf("meta = %+v, want %+v", meta, m)
	}
	pub, size, err := r.Latest(m.ID)
	if err != nil || pub != wantPub || size != wantSize {
		t.Errorf("Latest = (%d, %d, %v), want (%d, %d)", pub, size, err, wantPub, wantSize)
	}
	if pb, _ := r.PrunedBelow(m.ID); pb != 3 {
		t.Errorf("PrunedBelow = %d, want 3", pb)
	}
	d, err := r.VersionInfo(m.ID, a.Version)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Aborted {
		t.Errorf("aborted flag lost for version %d", a.Version)
	}
	// A new write after recovery continues the version line.
	v := assignCommit(t, r, m.ID, 4096)
	if pub, _, _ := r.Latest(m.ID); pub != v {
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
	if pub, _, _ := r.Latest(m.ID); pub != a.Version {
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
	pub1, size1, _ := r1.Latest(m.ID)
	r1.CloseWAL()
	// Second recovery over the very same (untouched) log.
	r2 := openState(t, dir)
	pub2, size2, _ := r2.Latest(m.ID)
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
	pub3, size3, _ := r2.Latest(m.ID)
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
	if err := s.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot mutations live only in the record suffix.
	assignCommit(t, s, m.ID, 4096)
	in, err := s.AssignVersion(m.ID, blob.KindAppend, 0, 4096, 0, blob.NoVersion)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.WALStatus()
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotSeq == 0 {
		t.Error("snapshot not recorded in WAL status")
	}
	s.CloseWAL()

	r := openState(t, dir)
	pub, _, err := r.Latest(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if pub != 5 {
		t.Errorf("published after snapshot+suffix recovery = %d, want 5", pub)
	}
	if meta, _ := r.GetMeta(m.ID); meta.Replication != 2 {
		t.Errorf("meta lost through snapshot: %+v", meta)
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
	if pub, _, _ := s.Latest(m.ID); pub != v {
		t.Errorf("published = %d, want %d", pub, v)
	}
}

// TestMutationAfterCloseWALFails: a closed log stays attached, so a
// mutation after CloseWAL fails instead of being acknowledged without
// ever reaching the log.
func TestMutationAfterCloseWALFails(t *testing.T) {
	s := openState(t, t.TempDir())
	m, err := s.CreateBlob(4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AssignVersion(m.ID, blob.KindAppend, 0, 4096, 0, blob.NoVersion); err == nil {
		t.Fatal("AssignVersion after CloseWAL succeeded; the assignment was never journaled")
	}
}

func TestNoWALStateUnchanged(t *testing.T) {
	s := NewState(nil)
	m, err := s.CreateBlob(4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	assignCommit(t, s, m.ID, 4096)
	if _, err := s.WALStatus(); err != ErrNoWAL {
		t.Errorf("WALStatus without log = %v, want ErrNoWAL", err)
	}
	if err := s.SnapshotNow(); err != ErrNoWAL {
		t.Errorf("SnapshotNow without log = %v, want ErrNoWAL", err)
	}
}
