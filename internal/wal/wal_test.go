package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func replayAll(t *testing.T, l *Log) (snap []byte, recs [][]byte) {
	t.Helper()
	err := l.Replay(func(p []byte, isSnap bool) error {
		cp := append([]byte(nil), p...)
		if isSnap {
			if snap != nil || len(recs) > 0 {
				t.Fatal("snapshot not delivered first / delivered twice")
			}
			snap = cp
		} else {
			recs = append(recs, cp)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return snap, recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("one"), []byte("two"), {}, []byte("four")}
	for _, r := range want {
		if err := l.AppendSync(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	snap, recs := replayAll(t, l2)
	if snap != nil {
		t.Errorf("unexpected snapshot")
	}
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if !bytes.Equal(recs[i], want[i]) {
			t.Errorf("record %d = %q, want %q", i, recs[i], want[i])
		}
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	rec := bytes.Repeat([]byte("x"), 64)
	for i := 0; i < 20; i++ {
		if err := l.AppendSync(rec); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Status()
	if st.Segments < 2 {
		t.Fatalf("expected rotation, got %d segment(s)", st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	_, recs := replayAll(t, l2)
	if len(recs) != 20 {
		t.Errorf("replayed %d records across segments, want 20", len(recs))
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.AppendSync([]byte("intact-1"))
	l.AppendSync([]byte("intact-2"))
	l.Close()

	// Simulate a crash mid-append: a full header promising 100 bytes
	// followed by only 10.
	path := filepath.Join(dir, "wal-00000001.seg")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], 100)
	binary.BigEndian.PutUint32(hdr[4:8], 0xdeadbeef)
	f.Write(hdr[:])
	f.Write([]byte("only10byte"))
	f.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open over torn tail: %v", err)
	}
	_, recs := replayAll(t, l2)
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want the 2 intact ones", len(recs))
	}
	// And the log must be appendable right where the tear was cut.
	if err := l2.AppendSync([]byte("post-crash")); err != nil {
		t.Fatal(err)
	}
	l2.Close()

	l3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	_, recs = replayAll(t, l3)
	if len(recs) != 3 || !bytes.Equal(recs[2], []byte("post-crash")) {
		t.Errorf("after truncate+append, records = %q", recs)
	}
}

func TestTornCRCTail(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{})
	l.AppendSync([]byte("good"))
	l.Close()

	// A record whose payload was only partly flushed: right length,
	// wrong bytes → CRC mismatch.
	path := filepath.Join(dir, "wal-00000001.seg")
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	payload := []byte("garbled-payload")
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE([]byte("what-was-meant1")))
	f.Write(hdr[:])
	f.Write(payload)
	f.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open over crc-torn tail: %v", err)
	}
	defer l2.Close()
	_, recs := replayAll(t, l2)
	if len(recs) != 1 || !bytes.Equal(recs[0], []byte("good")) {
		t.Errorf("records = %q, want just the intact one", recs)
	}
}

func TestInteriorCorruptionFailsReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		l.AppendSync(bytes.Repeat([]byte{byte('a' + i)}, 32))
	}
	l.Close()

	// Flip a payload byte in the FIRST segment (not the tail).
	path := filepath.Join(dir, "wal-00000001.seg")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	os.WriteFile(path, b, 0o644)

	l2, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	err = l2.Replay(func(p []byte, isSnap bool) error { return nil })
	if err == nil {
		t.Fatal("replay over interior corruption succeeded; acknowledged records were silently dropped")
	}
}

func TestSnapshotCompacts(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		l.AppendSync(bytes.Repeat([]byte("s"), 48))
	}
	before := l.Status()
	if before.Segments < 2 {
		t.Fatalf("want multiple segments before snapshot, got %d", before.Segments)
	}
	if err := l.SaveSnapshot([]byte("STATE-AT-10")); err != nil {
		t.Fatal(err)
	}
	l.AppendSync([]byte("after-snap"))
	after := l.Status()
	if after.Segments != 1 {
		t.Errorf("segments after compaction = %d, want 1", after.Segments)
	}
	if after.SnapshotSeq == 0 {
		t.Error("snapshot sequence not recorded")
	}
	l.Close()

	l2, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	snap, recs := replayAll(t, l2)
	if string(snap) != "STATE-AT-10" {
		t.Errorf("snapshot = %q", snap)
	}
	if len(recs) != 1 || string(recs[0]) != "after-snap" {
		t.Errorf("post-snapshot records = %q", recs)
	}
}

func TestSecondSnapshotDropsFirst(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.AppendSync([]byte("a"))
	if err := l.SaveSnapshot([]byte("S1")); err != nil {
		t.Fatal(err)
	}
	l.AppendSync([]byte("b"))
	if err := l.SaveSnapshot([]byte("S2")); err != nil {
		t.Fatal(err)
	}
	ents, _ := os.ReadDir(dir)
	snaps := 0
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".snap" {
			snaps++
		}
	}
	if snaps != 1 {
		t.Errorf("%d snapshot files on disk, want 1", snaps)
	}
	snap, recs := replayAll(t, l)
	if string(snap) != "S2" || len(recs) != 0 {
		t.Errorf("replay = snap %q + %d records, want S2 + 0", snap, len(recs))
	}
}

func TestAppendSyncForcesDurability(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AppendSync([]byte("synced")); err != nil {
		t.Fatal(err)
	}
	if st := l.Status(); st.Syncs < 1 || st.LastSyncUnix == 0 {
		t.Errorf("AppendSync returned before an fsync: %+v", st)
	}
}

func TestReplayEmptyLog(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	snap, recs := replayAll(t, l)
	if snap != nil || len(recs) != 0 {
		t.Errorf("fresh log replayed snap=%q recs=%d", snap, len(recs))
	}
}

func TestStatusCounts(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 5; i++ {
		l.AppendSync([]byte(fmt.Sprintf("r%d", i)))
	}
	st := l.Status()
	if st.Records != 5 {
		t.Errorf("Records = %d, want 5", st.Records)
	}
	if st.Dir != dir || st.Segments != 1 || st.LastSeq != 1 {
		t.Errorf("status = %+v", st)
	}
	if st.LogBytes <= 8 {
		t.Errorf("LogBytes = %d, want > header", st.LogBytes)
	}
}

func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 50
	done := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < each; i++ {
				if err := l.AppendSync([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	_, recs := replayAll(t, l2)
	if len(recs) != writers*each {
		t.Errorf("replayed %d records, want %d", len(recs), writers*each)
	}
}
