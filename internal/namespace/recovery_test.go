package namespace

import (
	"context"
	"fmt"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/fs"
	"blobseer/internal/wal"
)

// seqCreator hands out sequential blob IDs and counts invocations, so
// tests can assert that recovery never re-mints blobs. A race set runs
// once, inside the next call, between a create's two checks.
type seqCreator struct {
	next  blob.ID
	calls int
	race  func()
}

func (c *seqCreator) create(ctx context.Context, blockSize int64, replication int) (blob.ID, error) {
	if race := c.race; race != nil {
		c.race = nil
		race()
	}
	c.calls++
	c.next++
	return c.next, nil
}

func openNS(t testing.TB, dir string, cr *seqCreator) *State {
	t.Helper()
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Recover(log, cr.create)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.log.Close() })
	return s
}

func TestNamespaceRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cr := &seqCreator{}
	ctx := context.Background()
	s := openNS(t, dir, cr)

	idA, err := s.CreateFile(ctx, "/docs/a.txt", 4096, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	idB, _ := s.CreateFile(ctx, "/docs/b.txt", 4096, 1, false)
	if err := s.Mkdirs("/empty/dir"); err != nil {
		t.Fatal(err)
	}
	if err := s.Rename("/docs/b.txt", "/moved/b.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete("/docs/a.txt", false); err != nil {
		t.Fatal(err)
	}
	// A third file overwritten: its first blob joins the orphan list.
	s.CreateFile(ctx, "/c.txt", 4096, 1, false)
	idC2, _ := s.CreateFile(ctx, "/c.txt", 4096, 1, true)
	callsBefore := cr.calls
	s.log.Close()

	r := openNS(t, dir, cr)
	if cr.calls != callsBefore {
		t.Fatalf("recovery invoked the blob creator %d time(s); records must carry blob IDs", cr.calls-callsBefore)
	}
	if _, err := r.GetFile("/docs/a.txt"); err != fs.ErrNotFound {
		t.Errorf("deleted file resurrected: %v", err)
	}
	if id, err := r.GetFile("/moved/b.txt"); err != nil || id != idB {
		t.Errorf("renamed file = (%d, %v), want (%d, nil)", id, err, idB)
	}
	if id, err := r.GetFile("/c.txt"); err != nil || id != idC2 {
		t.Errorf("overwritten file = (%d, %v), want (%d, nil)", id, err, idC2)
	}
	if e, err := r.StatEntry("/empty/dir"); err != nil || !e.IsDir {
		t.Errorf("mkdirs lost: (%+v, %v)", e, err)
	}
	// Orphans from the delete and the overwrite survived recovery.
	orphans := r.Orphaned()
	if len(orphans) != 2 {
		t.Fatalf("orphans after recovery = %v, want the deleted %d and overwritten blob", orphans, idA)
	}
}

func TestNamespaceDrainNotReplayed(t *testing.T) {
	dir := t.TempDir()
	cr := &seqCreator{}
	ctx := context.Background()
	s := openNS(t, dir, cr)
	s.CreateFile(ctx, "/x", 4096, 1, false)
	s.Delete("/x", false)
	if got := s.Orphaned(); len(got) != 1 {
		t.Fatalf("drain = %v", got)
	}
	s.log.Close()

	r := openNS(t, dir, cr)
	if got := r.Orphaned(); len(got) != 0 {
		t.Errorf("recovered namespace re-offered drained orphans: %v", got)
	}
}

func TestNamespaceSnapshotCompactAndRecover(t *testing.T) {
	dir := t.TempDir()
	cr := &seqCreator{}
	ctx := context.Background()
	s := openNS(t, dir, cr)
	for _, p := range []string{"/a/1", "/a/2", "/b/3"} {
		if _, err := s.CreateFile(ctx, p, 4096, 1, false); err != nil {
			t.Fatal(err)
		}
	}
	s.Delete("/a/2", false) // leaves one orphan un-drained
	if err := s.snapshot(); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot suffix.
	id4, _ := s.CreateFile(ctx, "/b/4", 4096, 1, false)
	if st := s.log.Status(); st.SnapshotSeq == 0 || st.Snapshots != 1 {
		t.Errorf("snapshot not recorded in WAL status: %+v", st)
	}
	s.log.Close()

	r := openNS(t, dir, cr)
	if id, err := r.GetFile("/a/1"); err != nil || id != 1 {
		t.Errorf("/a/1 = (%d, %v)", id, err)
	}
	if _, err := r.GetFile("/a/2"); err != fs.ErrNotFound {
		t.Errorf("/a/2 should be deleted, got %v", err)
	}
	if id, err := r.GetFile("/b/4"); err != nil || id != id4 {
		t.Errorf("/b/4 = (%d, %v), want (%d, nil)", id, err, id4)
	}
	if got := r.Orphaned(); len(got) != 1 {
		t.Errorf("un-drained orphan lost through snapshot: %v", got)
	}
}

// TestNamespaceLogCompactsItself: 3,000 mkdir+delete pairs leave a
// one-file tree, and the log that compacts itself keeps it behind a
// segment or two, not behind every record ever written. Reopening
// yields the same tree.
func TestNamespaceLogCompactsItself(t *testing.T) {
	dir := t.TempDir()
	cr := &seqCreator{}
	ctx := context.Background()
	open := func() *State {
		log, err := wal.Open(dir, wal.Options{SegmentBytes: 4096})
		if err != nil {
			t.Fatal(err)
		}
		s, err := Recover(log, cr.create)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.log.Close() })
		return s
	}
	s := open()
	id, err := s.CreateFile(ctx, "/keep/a", 4096, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 3000 {
		p := fmt.Sprintf("/churn/d%d", i)
		if err := s.Mkdirs(p); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Delete(p, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.log.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.log.Status(); st.Segments > 2 {
		t.Errorf("%d segments (%d bytes) after 3000 mkdir+delete pairs, want <= 2", st.Segments, st.LogBytes)
	}

	r := open()
	if got, err := r.GetFile("/keep/a"); err != nil || got != id {
		t.Errorf("/keep/a = (%d, %v), want (%d, nil)", got, err, id)
	}
	if ents, err := r.List("/churn"); err != nil || len(ents) != 0 {
		t.Errorf("/churn = %+v (%v), want empty", ents, err)
	}
	if ents, err := r.List("/"); err != nil || len(ents) != 2 {
		t.Errorf("/ = %+v (%v), want keep and churn", ents, err)
	}
}

func TestNamespaceRecoverIdempotentSecondReplay(t *testing.T) {
	dir := t.TempDir()
	cr := &seqCreator{}
	ctx := context.Background()
	s := openNS(t, dir, cr)
	s.CreateFile(ctx, "/f", 4096, 1, false)
	s.Mkdirs("/d")
	s.Rename("/f", "/d/f")
	s.log.Close()

	r := openNS(t, dir, cr)
	// Re-apply the whole log onto the already-recovered state.
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if err := log.Replay(func(p []byte, isSnap bool) error {
		if isSnap {
			return r.loadSnapshot(p)
		}
		return r.applyRecord(p)
	}); err != nil {
		t.Fatalf("second replay: %v", err)
	}
	if id, err := r.GetFile("/d/f"); err != nil || id != 1 {
		t.Errorf("/d/f after double replay = (%d, %v), want (1, nil)", id, err)
	}
	if got := r.Orphaned(); len(got) != 0 {
		t.Errorf("double replay fabricated orphans: %v", got)
	}
}
