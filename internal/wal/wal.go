// Package wal implements the crash-durability substrate for BlobSeer's
// control services: a CRC-framed append-only record log with segment
// rotation, self-triggered snapshot+compact, and replay.
//
// BlobSeer's version manager is the single serialization point of the
// whole design — the paper's lock-free concurrency story reduces every
// write to one tiny AssignVersion/Publish exchange with it — which
// also makes it the single point where a crash can lose the
// publication line. The WAL closes that hole with a deliberately
// conventional design (the same shape as etcd's wal or LevelDB's log):
// state changes are appended as opaque records before they are acked,
// and recovery replays them in order into a fresh in-memory state.
// AppendSync, the only way in, returns once its record is fsynced, so
// every acknowledged mutation survives a power loss; concurrent
// appenders share fsyncs (group commit).
//
// On-disk layout (this comment is the format's authoritative doc,
// alongside the provider and dht wire-format package comments):
//
//	wal-00000001.seg   records, appended in order
//	wal-00000002.seg   opened when the previous segment passed SegmentBytes
//	snap-00000002.snap state snapshot superseding segments 1..2
//
// Each segment starts with an 8-byte header (magic "BSWAL001"), then
// records framed as:
//
//	u32 length | u32 crc32(IEEE, payload) | payload
//
// A torn tail — a partial record at the end of the *last* segment,
// from a crash mid-write — is detected by length/CRC and truncated; a
// last segment shorter than its header holds no acknowledged record and
// gets its header rewritten. A CRC mismatch anywhere else is corruption
// and fails recovery loudly: silently skipping interior records would
// un-publish versions that clients already saw acknowledged.
//
// Snapshots are whole-state serializations written to snap-*.tmp,
// fsynced and renamed (the fsstore idiom), so a crash never leaves a
// half-written snapshot under the final name. A snapshot named
// snap-N.snap makes segments 1..N deletable; replay loads the newest
// snapshot and then the segments after it. Superseded files are removed
// only after the new snapshot is durably on disk. Open reads only names
// that are exactly wal-%08d.seg or snap-%08d.snap, and deletes what a
// crash in between leaves: snap-*.tmp files, older snapshots and the
// segments the newest supersedes.
//
// The log compacts itself: it runs the role's snapshot function
// (Compact) in the background, one at a time, when a rotation leaves
// more bytes in the closed segments after the newest snapshot than
// max(SegmentBytes, the newest snapshot's size). Replay then reads at
// most about twice the state, and each logged byte is rewritten into a
// snapshot O(1) times. A failed compaction is counted and retried at
// the next rotation.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"
)

// Magic prefixes every segment file.
const Magic = "BSWAL001"

// Options configures a Log.
type Options struct {
	// SegmentBytes rotates to a new segment once the current one
	// exceeds this size. 0 means DefaultSegmentBytes.
	SegmentBytes int64
}

const (
	// DefaultSegmentBytes keeps segments small enough that replaying
	// the post-snapshot suffix stays fast.
	DefaultSegmentBytes = 4 << 20

	segHeaderSize = 8
	recHeaderSize = 8
	maxRecordSize = 64 << 20 // sanity bound; control records are tiny

	segFormat  = "wal-%08d.seg"
	snapFormat = "snap-%08d.snap"
)

// ErrCorrupt reports a CRC or framing violation in the interior of the
// log (not a torn tail, which recovery repairs silently).
var ErrCorrupt = errors.New("wal: corrupt record")

var errClosed = errors.New("wal: log closed")

// Status is a point-in-time summary of the log. A durable role exports
// it on /metrics as the wal_* gauges.
type Status struct {
	Segments        int    // live segment files
	LastSeq         uint64 // segment currently appended to
	SnapshotSeq     uint64 // newest snapshot's sequence, 0 if none
	LogBytes        int64  // total bytes across live segments
	Records         uint64 // records appended since Open (not lifetime)
	Syncs           uint64 // fsyncs issued since Open; < Records when group commit coalesces
	LastSyncUnix    int64  // wall time of the last fsync, 0 if never
	Snapshots       uint64 // snapshots saved since Open
	CompactFailures uint64 // compactions that failed since Open, each retried at the next rotation
}

// Log is an append-only record log. All methods are safe for
// concurrent use; appends are serialized internally.
//
// Durable appends use group commit: the record bytes are written under
// l.mu, but the fsync that makes them durable runs outside it. At most
// one caller — the leader — has an fsync in flight (the syncing flag);
// by the time it issues it, every record appended so far — its own and
// any follower's — is in the file, so one fsync makes them all durable.
// Followers park on the syncDone condition instead of queueing for a
// lock: when the leader finishes it broadcasts, every covered follower
// returns at once, and the first uncovered one leads the next flush
// (covering everything appended while the previous one ran). Under W
// concurrent committers this turns W fsyncs into ~1, which is what lets
// publish throughput scale with writers instead of serializing on the
// disk flush.
type Log struct {
	dir  string
	opts Options

	mu         sync.Mutex
	f          *os.File // current segment
	seq        uint64   // current segment sequence
	size       int64    // current segment size
	syncedSize int64    // current segment's size at its last completed fsync
	segs       []uint64 // live segment sequences, ascending (includes seq)
	sealed     int64    // bytes in the live segments before seq
	snapSeq    uint64   // newest snapshot sequence, 0 if none
	snapBytes  int64    // newest snapshot's file size
	records    uint64   // append sequence: total records written to the file
	synced     uint64   // records made durable; dirty iff synced < records
	syncs      uint64   // fsyncs issued
	lastSync   time.Time
	snapshots  uint64 // snapshots saved

	// Group-commit leader election: syncing is true while a leader's
	// fsync is in flight outside l.mu; syncDone (on l.mu) wakes the
	// followers parked behind it.
	syncing  bool
	syncDone *sync.Cond

	// The role's snapshot function (Compact), and the one run of it in
	// flight, which Close waits out.
	compact      func() error
	compacting   bool
	compactions  sync.WaitGroup
	compactFails uint64

	closed bool
}

// Open opens (creating if needed) the log in dir.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	l := &Log{dir: dir, opts: opts}
	l.syncDone = sync.NewCond(&l.mu)
	if err := l.scan(); err != nil {
		return nil, err
	}
	if err := l.openTail(); err != nil {
		return nil, err
	}
	return l, nil
}

// scan discovers existing segments and snapshots, deletes what a crash
// mid-snapshot left behind, and counts the bytes the compaction rule
// weighs.
func (l *Log) scan() error {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: scan %s: %w", l.dir, err)
	}
	var snaps []uint64
	for _, e := range ents {
		name := e.Name()
		if seq, ok := seqOf(name, segFormat); ok {
			l.segs = append(l.segs, seq)
		} else if seq, ok := seqOf(name, snapFormat); ok {
			snaps = append(snaps, seq)
		} else if tmp, _ := filepath.Match("snap-*.tmp", name); tmp {
			os.Remove(filepath.Join(l.dir, name)) // a snapshot cut short before its rename
		}
	}
	slices.Sort(l.segs)
	slices.Sort(snaps)
	if n := len(snaps); n > 0 {
		l.snapSeq = snaps[n-1]
		for _, s := range snaps[:n-1] {
			os.Remove(l.snapPath(s))
		}
		if fi, err := os.Stat(l.snapPath(l.snapSeq)); err == nil { // else Replay reports it
			l.snapBytes = fi.Size()
		}
	}
	l.dropSuperseded()
	for i := 0; i+1 < len(l.segs); i++ {
		if fi, err := os.Stat(l.segPath(l.segs[i])); err == nil {
			l.sealed += fi.Size()
		}
	}
	return nil
}

// dropSuperseded deletes the segments the newest snapshot supersedes.
// Callers hold l.mu (or are in Open).
func (l *Log) dropSuperseded() {
	live := l.segs[:0]
	for _, s := range l.segs {
		if s <= l.snapSeq {
			os.Remove(l.segPath(s))
		} else {
			live = append(live, s)
		}
	}
	l.segs = live
}

// seqOf returns the sequence number in name when name is exactly what
// format prints for it, so a temp file such as snap-4131815322.tmp is
// never read as snapshot 41318153.
func seqOf(name, format string) (uint64, bool) {
	var seq uint64
	_, err := fmt.Sscanf(name, format, &seq)
	return seq, err == nil && name == fmt.Sprintf(format, seq)
}

func (l *Log) segPath(seq uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf(segFormat, seq))
}

func (l *Log) snapPath(seq uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf(snapFormat, seq))
}

// openTail opens the newest segment for appending (creating segment 1
// on a fresh log), truncating a torn tail if the process died mid
// append.
func (l *Log) openTail() error {
	if len(l.segs) == 0 {
		return l.rotateLocked(l.snapSeq + 1)
	}
	seq := l.segs[len(l.segs)-1]
	path := l.segPath(seq)
	if fi, err := os.Stat(path); err == nil && fi.Size() < segHeaderSize {
		// A crash before the segment's first fsync: no record in it
		// was acknowledged. Recreate it, whatever comes before.
		os.Remove(path)
		l.segs = l.segs[:len(l.segs)-1]
		return l.rotateLocked(seq)
	}
	valid, err := scanSegment(path, nil)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open tail: %w", err)
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	l.f, l.seq, l.size, l.syncedSize = f, seq, valid, valid
	return nil
}

// rotateLocked closes the current segment and starts seq. Callers hold
// l.mu (or are in Open, before the log is shared).
func (l *Log) rotateLocked(seq uint64) error {
	if l.f != nil {
		// The old segment's contents must be durable before records
		// land in the new one, or replay order could show a suffix
		// without its prefix. Every record written so far lives in the
		// old segment, so this sync covers them all — including any a
		// concurrent group-commit leader is waiting on (its own fsync
		// of the closed handle then fails, and it rechecks synced).
		if err := l.f.Sync(); err != nil {
			return err
		}
		l.synced = l.records
		l.syncs++
		l.lastSync = time.Now()
		if err := l.f.Close(); err != nil {
			return err
		}
		l.sealed += l.size
	}
	f, err := os.OpenFile(l.segPath(seq), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if _, err := f.Write([]byte(Magic)); err != nil {
		f.Close()
		return err
	}
	// The header becomes durable with the segment's first fsync; the
	// file's name must already be, or a record acknowledged in it could
	// vanish with its directory entry.
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f, l.seq, l.size, l.syncedSize = f, seq, segHeaderSize, 0
	l.segs = append(l.segs, seq)
	return nil
}

// syncDir makes the directory entries created or renamed in dir
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		return fmt.Errorf("wal: fsync dir: %w", err)
	}
	return nil
}

// AppendSync writes one record and returns once it (and, the log being
// sequential, every record before it) is on disk. It is the only way a
// record enters the log: every journaled mutation is durable before it
// is acknowledged.
func (l *Log) AppendSync(payload []byte) error {
	if len(payload) > maxRecordSize {
		return fmt.Errorf("wal: record of %d bytes exceeds limit", len(payload))
	}
	var hdr [recHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errClosed
	}
	if l.size >= l.opts.SegmentBytes {
		if err := l.rotateLocked(l.seq + 1); err != nil {
			l.mu.Unlock()
			return err
		}
		l.compactLocked()
	}
	if _, err := l.f.Write(hdr[:]); err != nil {
		l.mu.Unlock()
		return fmt.Errorf("wal: append: %w", err)
	}
	if _, err := l.f.Write(payload); err != nil {
		l.mu.Unlock()
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(recHeaderSize + len(payload))
	l.records++
	seq := l.records
	l.mu.Unlock()

	// Group commit: the record is in the file; fsync outside l.mu so
	// concurrent appenders keep writing while the flush runs.
	return l.syncTo(seq)
}

// syncTo returns once record seq is durable. Callers whose record was
// covered by another leader's fsync (or a segment rotation's) return
// without touching the disk; an uncovered caller finding no leader in
// flight becomes one itself.
func (l *Log) syncTo(seq uint64) error {
	l.mu.Lock()
	for {
		if l.synced >= seq {
			l.mu.Unlock()
			return nil // a previous group commit covered this record
		}
		if l.closed {
			l.mu.Unlock()
			return errClosed
		}
		if !l.syncing {
			break // no leader in flight: lead the next group commit
		}
		l.syncDone.Wait()
	}
	l.syncing = true
	l.mu.Unlock()
	// The previous leader's broadcast woke a herd of committers that are
	// about to append their next records; yielding once lets those
	// appends land before the flush target is captured, so they ride
	// this fsync instead of forcing another. (Batch size, not latency,
	// bounds durable throughput: the yield is nanoseconds against a
	// >100µs fsync.)
	runtime.Gosched()
	l.mu.Lock()
	f, seg := l.f, l.seq // seq is unsynced, so it lives in the current segment
	target, size := l.records, l.size
	l.mu.Unlock()

	err := f.Sync()

	l.mu.Lock()
	l.syncing = false
	if err == nil {
		if target > l.synced {
			l.synced = target
		}
		if seg == l.seq && size > l.syncedSize {
			l.syncedSize = size
		}
		l.syncs++
		l.lastSync = time.Now()
	}
	// A concurrent rotation/snapshot may have synced (then closed) the
	// segment under us; if it advanced past seq the record is durable
	// and the stale-handle error is moot.
	covered := l.synced >= seq
	l.syncDone.Broadcast()
	l.mu.Unlock()
	if err != nil && !covered {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	return nil
}

// syncLocked fsyncs under l.mu (seal and close paths — not the
// group-commit hot path).
func (l *Log) syncLocked() error {
	if l.synced >= l.records {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.synced, l.syncedSize = l.records, l.size
	l.syncs++
	l.lastSync = time.Now()
	return nil
}

// Compact registers the role's snapshot function, which the log runs
// in the background by the package's compaction rule (never inline: an
// append holds the role's locks). snapshot takes those locks and calls
// SaveSnapshot with the state they guard. A role registers it once,
// after Replay; a log already past the rule compacts at once.
func (l *Log) Compact(snapshot func() error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.compact = snapshot
	l.compactLocked()
}

// compactLocked starts the registered compaction if the rule holds and
// none is running. Callers hold l.mu.
func (l *Log) compactLocked() {
	if l.compact == nil || l.compacting || l.closed || l.sealed <= max(l.opts.SegmentBytes, l.snapBytes) {
		return
	}
	l.compacting = true
	l.compactions.Add(1)
	go func() {
		defer l.compactions.Done()
		err := l.compact()
		l.mu.Lock()
		defer l.mu.Unlock()
		l.compacting = false
		if err != nil && !errors.Is(err, errClosed) {
			l.compactFails++ // the next rotation retries
		}
	}()
}

// Close flushes and closes the log. It waits for an in-flight group
// commit to finish so the segment handle is never closed under a
// leader's fsync, and then for an in-flight compaction, so a restart
// never opens the directory while a dead instance still writes to it.
func (l *Log) Close() error {
	l.mu.Lock()
	for l.syncing {
		l.syncDone.Wait()
	}
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.mu.Unlock()
	l.compactions.Wait()
	return err
}

// SaveSnapshot durably writes state as the snapshot superseding every
// record appended so far, then deletes the segments (and older
// snapshots) it makes redundant. The caller holds the locks its role
// appends under, so state is exactly what the superseded records built
// and no two calls overlap.
func (l *Log) SaveSnapshot(state []byte) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errClosed
	}
	// Seal the current segment: the snapshot supersedes segments
	// 1..seq, and new appends go to seq+1 so compaction has a clean
	// boundary.
	if err := l.syncLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	snapSeq := l.seq
	if err := l.rotateLocked(l.seq + 1); err != nil {
		l.mu.Unlock()
		return err
	}
	covered := l.sealed // every closed segment is now at or below snapSeq
	l.mu.Unlock()

	// Write the snapshot tmp+fsync+rename so a crash never leaves a
	// half-written snapshot under the final name.
	path := l.snapPath(snapSeq)
	tmp, err := os.CreateTemp(l.dir, "snap-*.tmp")
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	var hdr [recHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(state)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(state))
	_, err = tmp.Write(append(append([]byte(Magic), hdr[:]...), state...))
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := syncDir(l.dir); err != nil { // make the rename itself durable
		return err
	}

	// Only now is it safe to drop the superseded files.
	l.mu.Lock()
	defer l.mu.Unlock()
	oldSnap := l.snapSeq
	l.snapSeq, l.snapBytes = snapSeq, int64(segHeaderSize+recHeaderSize+len(state))
	l.sealed -= covered
	l.snapshots++
	l.dropSuperseded()
	if oldSnap > 0 && oldSnap != snapSeq {
		os.Remove(l.snapPath(oldSnap))
	}
	return nil
}

// Replay streams the durable state: snapshot (if any) first, then
// every surviving record in append order. It reads from disk
// independently of the append path, so it can run on a freshly Opened
// log before any writes. fn receiving a snapshot gets isSnapshot=true
// exactly once, as the first call.
func (l *Log) Replay(fn func(payload []byte, isSnapshot bool) error) error {
	l.mu.Lock()
	snapSeq := l.snapSeq
	segs := append([]uint64(nil), l.segs...)
	l.mu.Unlock()

	if snapSeq > 0 {
		state, err := readSnapshot(l.snapPath(snapSeq))
		if err != nil {
			return fmt.Errorf("wal: snapshot %d: %w", snapSeq, err)
		}
		if err := fn(state, true); err != nil {
			return err
		}
	}
	for i, seq := range segs {
		last := i == len(segs)-1
		valid, err := scanSegment(l.segPath(seq), func(rec []byte) error {
			return fn(rec, false)
		})
		if err != nil {
			return err
		}
		if !last {
			// A torn tail is only legal in the final segment: damage
			// here means records clients saw acknowledged are gone,
			// and replaying the suffix would resurrect a state that
			// never existed. Fail loudly instead.
			if fi, serr := os.Stat(l.segPath(seq)); serr == nil && valid != fi.Size() {
				return fmt.Errorf("wal: segment %d: interior corruption at offset %d: %w", seq, valid, ErrCorrupt)
			}
		}
	}
	return nil
}

// Status reports the log's current shape.
func (l *Log) Status() Status {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Status{
		Segments:        len(l.segs),
		LastSeq:         l.seq,
		SnapshotSeq:     l.snapSeq,
		LogBytes:        l.sealed + l.size,
		Records:         l.records,
		Syncs:           l.syncs,
		Snapshots:       l.snapshots,
		CompactFailures: l.compactFails,
	}
	if !l.lastSync.IsZero() {
		st.LastSyncUnix = l.lastSync.Unix()
	}
	return st
}

// scanSegment walks a segment's records, calling fn (if non-nil) for
// each intact one, and returns the byte offset after the last intact
// record. Any invalid record — short header, impossible length,
// truncated payload, CRC mismatch — stops the scan *without error*:
// the returned offset is what openTail truncates to, and Replay
// decides from context whether an early stop is a legal torn tail
// (final segment) or interior corruption. A missing/garbled segment
// header is unconditionally ErrCorrupt: there is nothing salvageable.
func scanSegment(path string, fn func(rec []byte) error) (validLen int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("wal: open segment: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("wal: stat segment: %w", err)
	}
	hdr := make([]byte, segHeaderSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		// openTail recreates a last segment this short, so only an
		// interior one gets here.
		if err == io.EOF {
			return 0, fmt.Errorf("wal: segment %s: empty: %w", path, ErrCorrupt)
		}
		return 0, fmt.Errorf("wal: segment %s: missing header: %w", path, ErrCorrupt)
	}
	if string(hdr) != Magic {
		return 0, fmt.Errorf("wal: segment %s: bad magic %q: %w", path, hdr, ErrCorrupt)
	}
	valid := int64(segHeaderSize)
	var rh [recHeaderSize]byte
	for {
		if _, err := io.ReadFull(f, rh[:]); err != nil {
			return valid, nil // clean end (EOF) or partial header
		}
		n := binary.BigEndian.Uint32(rh[0:4])
		want := binary.BigEndian.Uint32(rh[4:8])
		if n > maxRecordSize || int64(n) > fi.Size()-valid-recHeaderSize {
			return valid, nil // garbage length or partial payload: torn tail
		}
		rec := make([]byte, n)
		if _, err := io.ReadFull(f, rec); err != nil {
			return valid, nil // partial payload: torn tail
		}
		if crc32.ChecksumIEEE(rec) != want {
			return valid, nil // garbled payload: torn tail
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return valid, err
			}
		}
		valid += int64(recHeaderSize + n)
	}
}

// readSnapshot loads and verifies a snapshot file.
func readSnapshot(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b) < segHeaderSize+recHeaderSize || string(b[:segHeaderSize]) != Magic {
		return nil, ErrCorrupt
	}
	n := binary.BigEndian.Uint32(b[segHeaderSize : segHeaderSize+4])
	want := binary.BigEndian.Uint32(b[segHeaderSize+4 : segHeaderSize+8])
	state := b[segHeaderSize+recHeaderSize:]
	if uint32(len(state)) != n || crc32.ChecksumIEEE(state) != want {
		return nil, ErrCorrupt
	}
	return state, nil
}
