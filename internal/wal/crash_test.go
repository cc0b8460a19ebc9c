package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// frame appends rec to b in the log's record framing.
func frame(b, rec []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(rec)))
	b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(rec))
	return append(b, rec...)
}

// segmentBytes is a segment file holding recs. A snapshot file has the
// same layout, with the state as its one record.
func segmentBytes(recs ...[]byte) []byte {
	b := []byte(Magic)
	for _, r := range recs {
		b = frame(b, r)
	}
	return b
}

func writeFile(t testing.TB, dir, name string, b []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// powerLoss is a power failure under l (powerCut), then a reopen of the
// directory.
func powerLoss(t *testing.T, l *Log) *Log {
	t.Helper()
	powerCut(t, l)
	l2, err := Open(l.dir, l.opts)
	if err != nil {
		t.Fatalf("reopen after power loss: %v", err)
	}
	return l2
}

// powerCut is a power failure under l: the disk keeps what was fsynced
// and nothing else. It waits out an fsync in flight (an acknowledgement
// follows only a completed one) and a compaction in flight, drops the
// handle without syncing, and cuts the current segment back to its size
// at its last completed fsync — every earlier segment was fsynced whole
// when the log rotated past it.
func powerCut(t *testing.T, l *Log) {
	t.Helper()
	l.mu.Lock()
	for l.syncing {
		l.syncDone.Wait()
	}
	l.closed = true
	l.f.Close()
	path, size := l.segPath(l.seq), l.syncedSize
	l.mu.Unlock()
	l.compactions.Wait()
	if err := os.Truncate(path, size); err != nil {
		t.Fatal(err)
	}
}

// TestPowerLossKeepsAcknowledgedRecords cuts the power under eight
// concurrent writers once a seeded random number of appends has
// started, with segments small enough to rotate often. Every record whose AppendSync returned nil
// must replay exactly once and in its writer's order; the only other
// record a writer may leave is the one it still had in flight.
func TestPowerLossKeepsAcknowledgedRecords(t *testing.T) {
	const writers = 8
	for seed := int64(1); seed <= 10; seed++ {
		dir := t.TempDir()
		l, err := Open(dir, Options{SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		cut := rand.New(rand.NewSource(seed)).Int63n(400)
		var started atomic.Int64
		acked := make([]int, writers)
		var wg sync.WaitGroup
		for w := range writers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; started.Add(1) <= cut; i++ {
					if l.AppendSync([]byte(fmt.Sprintf("%d/%d", w, i))) != nil {
						return
					}
					acked[w] = i + 1
				}
			}()
		}
		for started.Load() < cut {
			runtime.Gosched()
		}
		l2 := powerLoss(t, l)
		wg.Wait()

		_, recs := replayAll(t, l2)
		next := make([]int, writers)
		for _, r := range recs {
			var w, i int
			if _, err := fmt.Sscanf(string(r), "%d/%d", &w, &i); err != nil || w < 0 || w >= writers {
				t.Fatalf("seed %d: replayed a record no writer wrote: %q", seed, r)
			}
			if i != next[w] {
				t.Fatalf("seed %d: writer %d's record %d replayed after its record %d", seed, w, i, next[w]-1)
			}
			next[w]++
		}
		for w := range writers {
			if next[w] < acked[w] || next[w] > acked[w]+1 {
				t.Errorf("seed %d: writer %d had %d records acknowledged, %d replayed", seed, w, acked[w], next[w])
			}
		}
		if err := l2.AppendSync([]byte("after")); err != nil {
			t.Fatalf("seed %d: append after recovery: %v", seed, err)
		}
		l2.Close()
	}
}

// counters is a toy durable role: per-writer counters behind one
// mutex. A writer appends its next record under the mutex, and the
// snapshot is taken under it, as vmanager and namespace do with their
// locks.
type counters struct {
	mu  sync.Mutex
	log *Log
	n   []uint64 // records acknowledged per writer
}

// recoverCounters replays l into a fresh role, checking every record
// is the next one of its writer, and registers the role's compaction.
func recoverCounters(l *Log, writers int) (*counters, error) {
	c := &counters{log: l, n: make([]uint64, writers)}
	err := l.Replay(func(p []byte, isSnap bool) error {
		if isSnap {
			if len(p) != 8*writers {
				return fmt.Errorf("snapshot of %d bytes", len(p))
			}
			for w := range c.n {
				c.n[w] = binary.BigEndian.Uint64(p[8*w:])
			}
			return nil
		}
		var w int
		var i uint64
		if _, err := fmt.Sscanf(string(p), "%d/%d", &w, &i); err != nil || w < 0 || w >= writers {
			return fmt.Errorf("replayed a record no writer wrote: %q", p)
		}
		if i != c.n[w] {
			return fmt.Errorf("writer %d's record %d replayed after its record %d", w, i, int64(c.n[w])-1)
		}
		c.n[w]++
		return nil
	})
	l.Compact(c.snapshot)
	return c, err
}

func (c *counters) add(w int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.log.AppendSync(fmt.Appendf(nil, "%d/%d", w, c.n[w])); err != nil {
		return err
	}
	c.n[w]++
	return nil
}

func (c *counters) snapshot() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var b []byte
	for _, v := range c.n {
		b = binary.BigEndian.AppendUint64(b, v)
	}
	return c.log.SaveSnapshot(b)
}

// TestPowerLossWhileCompacting cuts the power under eight writers of a
// role whose log compacts itself every few records. Half the seeds
// also leave a snapshot's temp file behind, the other half the
// segments and the older snapshot the newest one superseded (a crash
// before the rename, and one between the rename and the cleanup).
// After reopening, every acknowledged record is reflected exactly once
// and in its writer's order, and the leftovers are gone.
func TestPowerLossWhileCompacting(t *testing.T) {
	const writers = 8
	var snapshots uint64
	for seed := int64(1); seed <= 10; seed++ {
		dir := t.TempDir()
		l, err := Open(dir, Options{SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		c, err := recoverCounters(l, writers)
		if err != nil {
			t.Fatal(err)
		}
		cut := rand.New(rand.NewSource(seed)).Int63n(400)
		var started atomic.Int64
		acked := make([]uint64, writers)
		var wg sync.WaitGroup
		for w := range writers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for started.Add(1) <= cut {
					if c.add(w) != nil {
						return
					}
					acked[w]++
				}
			}()
		}
		for started.Load() < cut {
			runtime.Gosched()
		}
		powerCut(t, l)
		wg.Wait()
		st := l.Status()
		snapshots += st.Snapshots
		if seed%2 == 1 {
			tmp, err := os.CreateTemp(dir, "snap-*.tmp")
			if err != nil {
				t.Fatal(err)
			}
			tmp.WriteString("half a snapshot")
			tmp.Close()
		} else if st.SnapshotSeq > 0 {
			writeFile(t, dir, fmt.Sprintf("wal-%08d.seg", st.SnapshotSeq), segmentBytes([]byte("stale")))
			if st.SnapshotSeq > 1 {
				writeFile(t, dir, fmt.Sprintf("snap-%08d.snap", st.SnapshotSeq-1), segmentBytes([]byte("stale")))
			}
		}

		l2, err := Open(dir, Options{SegmentBytes: 256})
		if err != nil {
			t.Fatalf("seed %d: reopen after power loss: %v", seed, err)
		}
		c2, err := recoverCounters(l2, writers)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for w := range writers {
			if c2.n[w] < acked[w] || c2.n[w] > acked[w]+1 {
				t.Errorf("seed %d: writer %d had %d records acknowledged, %d recovered", seed, w, acked[w], c2.n[w])
			}
		}
		if err := c2.add(0); err != nil {
			t.Fatalf("seed %d: append after recovery: %v", seed, err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		if left := crashLeftovers(t, dir); len(left) > 0 {
			t.Errorf("seed %d: left behind %q", seed, left)
		}
	}
	if snapshots == 0 {
		t.Error("no compaction fired before any cut")
	}
}

// crashLeftovers lists the files in a closed log's directory that no
// recovery reads: temp files, snapshots older than the newest and
// segments it supersedes.
func crashLeftovers(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var newest uint64
	for _, e := range ents {
		if seq, ok := seqOf(e.Name(), snapFormat); ok {
			newest = max(newest, seq)
		}
	}
	var left []string
	for _, e := range ents {
		snap, isSnap := seqOf(e.Name(), snapFormat)
		seg, isSeg := seqOf(e.Name(), segFormat)
		if isSnap && snap < newest || isSeg && seg <= newest || filepath.Ext(e.Name()) == ".tmp" {
			left = append(left, e.Name())
		}
	}
	return left
}

// TestOpenDeletesCrashLeftovers: a crash mid-snapshot leaves a
// snap-*.tmp file (before the rename), or an older snapshot and the
// segments the newest supersedes (between the rename and the cleanup).
// Open reads none of them as the newest snapshot, and deletes them.
func TestOpenDeletesCrashLeftovers(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.AppendSync([]byte("a"))
	if err := l.SaveSnapshot([]byte("S1")); err != nil {
		t.Fatal(err)
	}
	l.AppendSync([]byte("b"))
	if err := l.SaveSnapshot([]byte("S2")); err != nil {
		t.Fatal(err)
	}
	l.AppendSync([]byte("c"))
	l.Close()
	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	tmp.WriteString("half a snapshot")
	tmp.Close()
	writeFile(t, dir, "snap-00000001.snap", segmentBytes([]byte("S1")))
	writeFile(t, dir, "wal-00000002.seg", segmentBytes([]byte("b")))

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen over crash leftovers: %v", err)
	}
	if snap, recs := replayAll(t, l2); string(snap) != "S2" || len(recs) != 1 || string(recs[0]) != "c" {
		t.Errorf("replay = snap %q + %q, want S2 + [c]", snap, recs)
	}
	l2.Close()
	if left := crashLeftovers(t, dir); len(left) > 0 {
		t.Errorf("Open left %q behind", left)
	}
}

// TestPowerLossAfterSnapshot cuts the power right after SaveSnapshot
// rotated: the new segment's header was never fsynced, so the disk
// holds an empty last segment, and the log must reopen on the
// snapshot.
func TestPowerLossAfterSnapshot(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendSync([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := l.SaveSnapshot([]byte("S")); err != nil {
		t.Fatal(err)
	}
	l2 := powerLoss(t, l)
	defer l2.Close()
	if snap, recs := replayAll(t, l2); string(snap) != "S" || len(recs) != 0 {
		t.Errorf("replay = snap %q + %q, want S alone", snap, recs)
	}
}

// TestShortSegmentAfterSnapshotReopens: the crash came after
// SaveSnapshot created segment 2 but before its 8-byte header reached
// the disk. The segment holds no acknowledged record, so the log
// reopens on the snapshot and appends where the header was rewritten.
func TestShortSegmentAfterSnapshotReopens(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.AppendSync([]byte("a"))
	if err := l.SaveSnapshot([]byte("S")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := os.Truncate(filepath.Join(dir, "wal-00000002.seg"), 3); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen over a short last segment: %v", err)
	}
	if snap, recs := replayAll(t, l2); string(snap) != "S" || len(recs) != 0 {
		t.Errorf("replay = snap %q + %q, want S alone", snap, recs)
	}
	if err := l2.AppendSync([]byte("b")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if snap, recs := replayAll(t, l3); string(snap) != "S" || len(recs) != 1 || string(recs[0]) != "b" {
		t.Errorf("replay after append = snap %q + %q, want S + [b]", snap, recs)
	}
}

// TestEmptyLastSegmentReopens: a crash right after a rotation created
// segment 2 leaves it empty behind a whole segment 1.
func TestEmptyLastSegmentReopens(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.AppendSync([]byte("one"))
	l.AppendSync([]byte("two"))
	l.Close()
	writeFile(t, dir, "wal-00000002.seg", nil)

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen over an empty last segment: %v", err)
	}
	defer l2.Close()
	if _, recs := replayAll(t, l2); len(recs) != 2 || string(recs[0]) != "one" || string(recs[1]) != "two" {
		t.Errorf("replayed %q, want segment 1's [one two]", recs)
	}
}

// TestTornLengthDoesNotAllocate: a torn record header claiming 60 MB,
// followed by 10 bytes, is a torn tail — read without allocating the
// length it claims.
func TestTornLengthDoesNotAllocate(t *testing.T) {
	dir := t.TempDir()
	seg := segmentBytes([]byte("intact-1"), []byte("intact-2"))
	seg = binary.BigEndian.AppendUint32(seg, 60<<20)
	seg = binary.BigEndian.AppendUint32(seg, 0xdeadbeef)
	writeFile(t, dir, "wal-00000001.seg", append(seg, "only10byte"...))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l, err := Open(dir, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
		t.Errorf("Open allocated %d bytes for a torn 60 MB length", d)
	}
	if _, recs := replayAll(t, l); len(recs) != 2 {
		t.Errorf("replayed %d records, want the 2 intact ones", len(recs))
	}
}

// validRecords reads seg the way the format defines it: the records
// after the header, up to the first that is incomplete or fails its
// CRC.
func validRecords(seg []byte) [][]byte {
	if len(seg) < len(Magic) || string(seg[:len(Magic)]) != Magic {
		return nil
	}
	var recs [][]byte
	for b := seg[len(Magic):]; len(b) >= recHeaderSize; {
		n := binary.BigEndian.Uint32(b[0:4])
		if uint64(n) > uint64(len(b)-recHeaderSize) {
			break
		}
		rec := b[recHeaderSize : recHeaderSize+int(n)]
		if crc32.ChecksumIEEE(rec) != binary.BigEndian.Uint32(b[4:8]) {
			break
		}
		recs = append(recs, rec)
		b = b[recHeaderSize+int(n):]
	}
	return recs
}

// FuzzWALRecovery writes the input as the last segment behind a whole
// one (and, with snap, a snapshot before both). Open either fails with
// ErrCorrupt or recovers: replay then yields the snapshot, the whole
// segment's records and a prefix of the input's valid records, and
// recovering again yields the same.
func FuzzWALRecovery(f *testing.F) {
	whole := segmentBytes([]byte("alpha"), []byte("beta"), bytes.Repeat([]byte("g"), 100))
	torn60 := binary.BigEndian.AppendUint32(segmentBytes([]byte("x")), 60<<20)
	torn60 = append(binary.BigEndian.AppendUint32(torn60, 0xdeadbeef), "only10byte"...)
	badCRC := segmentBytes([]byte("alpha"), []byte("beta"))
	badCRC[len(badCRC)-1] ^= 0xff
	for _, snap := range []bool{false, true} {
		for _, n := range []int{0, 3, 8, 12, 20, len(whole) - 1, len(whole)} {
			f.Add(whole[:n], snap)
		}
		f.Add(torn60, snap)
		f.Add(badCRC, snap)
		f.Add([]byte("NOTAWAL!"), snap)
	}
	base := [][]byte{[]byte("one"), []byte("two"), {}}
	f.Fuzz(func(t *testing.T, last []byte, snap bool) {
		dir := t.TempDir()
		var wantSnap []byte
		seq := 1
		if snap {
			wantSnap = []byte("S")
			writeFile(t, dir, "snap-00000001.snap", segmentBytes(wantSnap))
			seq = 2
		}
		writeFile(t, dir, fmt.Sprintf("wal-%08d.seg", seq), segmentBytes(base...))
		writeFile(t, dir, fmt.Sprintf("wal-%08d.seg", seq+1), last)

		reopen := func() ([]byte, [][]byte, error) {
			l, err := Open(dir, Options{})
			if err != nil {
				return nil, nil, err
			}
			defer l.Close()
			s, recs := replayAll(t, l)
			return s, recs, nil
		}
		gotSnap, recs, err := reopen()
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open failed without ErrCorrupt: %v", err)
			}
			return
		}
		if !bytes.Equal(gotSnap, wantSnap) {
			t.Fatalf("snapshot = %q, want %q", gotSnap, wantSnap)
		}
		if len(recs) < len(base) {
			t.Fatalf("replayed %d records, fewer than the whole segment's %d", len(recs), len(base))
		}
		for i := range base {
			if !bytes.Equal(recs[i], base[i]) {
				t.Fatalf("record %d = %q, want %q", i, recs[i], base[i])
			}
		}
		valid := validRecords(last)
		tail := recs[len(base):]
		if len(tail) > len(valid) {
			t.Fatalf("replayed %d records from the last segment, which holds %d valid ones", len(tail), len(valid))
		}
		for i := range tail {
			if !bytes.Equal(tail[i], valid[i]) {
				t.Fatalf("last segment's record %d = %q, want %q", i, tail[i], valid[i])
			}
		}

		againSnap, again, err := reopen()
		if err != nil {
			t.Fatalf("second recovery: %v", err)
		}
		if !bytes.Equal(againSnap, gotSnap) || len(again) != len(recs) {
			t.Fatalf("second recovery = snap %q + %d records, first = snap %q + %d", againSnap, len(again), gotSnap, len(recs))
		}
		for i := range recs {
			if !bytes.Equal(again[i], recs[i]) {
				t.Fatalf("second recovery's record %d = %q, first's %q", i, again[i], recs[i])
			}
		}
	})
}
