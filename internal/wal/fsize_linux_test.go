//go:build linux

package wal

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"syscall"
	"testing"
)

// TestNoAcknowledgedRecordLostAfterFailedAppend: a write cut short by
// the process's file-size limit leaves a torn record in the segment.
// An append acknowledged after it would land behind the torn record,
// which Open truncates with all that follows it, so the log refuses
// every append after a failed one, and every acknowledged record
// survives the reopen. The limit is process-wide: this test must not
// run in parallel with another.
func TestNoAcknowledgedRecordLostAfterFailedAppend(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var acked [][]byte
	for i := range 3 {
		rec := []byte(fmt.Sprintf("rec-%d", i))
		if err := l.AppendSync(rec); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, rec)
	}

	fi, err := os.Stat(l.segPath(l.seq))
	if err != nil {
		t.Fatal(err)
	}
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	restore := func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
			t.Fatal(err)
		}
	}
	defer restore()
	// Room for the next record's header and 4 bytes of its payload.
	cut := old
	cut.Cur = uint64(fi.Size()) + recHeaderSize + 4
	if cut.Cur > old.Cur {
		t.Skipf("file-size limit %d is below the segment's end", old.Cur)
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &cut); err != nil {
		t.Skipf("cannot lower the file-size limit: %v", err)
	}
	failed := l.AppendSync(bytes.Repeat([]byte("x"), 64))
	restore()
	if failed == nil {
		t.Fatal("an append past the file-size limit succeeded")
	}

	after := []byte("acked-after-failure")
	if err := l.AppendSync(after); err == nil {
		acked = append(acked, after)
	}
	l.Close()

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, recs := replayAll(t, r)
	if !slices.EqualFunc(recs, acked, bytes.Equal) {
		t.Fatalf("replay after the failed append = %q, want every acknowledged record %q", recs, acked)
	}
	if len(acked) != 3 {
		t.Errorf("an append after a failed one was acknowledged; the log must stop")
	}
	// Open repaired the tail: the reopened log appends and replays.
	if err := r.AppendSync(after); err != nil {
		t.Fatal(err)
	}
	if _, recs := replayAll(t, r); len(recs) != 4 || !bytes.Equal(recs[3], after) {
		t.Errorf("replay after the repaired tail = %q, want the 3 records and %q", recs, after)
	}
}
