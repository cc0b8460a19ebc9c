package stream_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/stream"
)

const B = 4 * 1024

func pattern(tag byte, n int) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = tag ^ byte(i*13)
	}
	return d
}

// memSource is an in-memory snapshot with per-fetch accounting, an
// optional per-fetch failure switch and an optional hook every fetch
// runs first.
type memSource struct {
	data    []byte
	fetches atomic.Int64
	fail    atomic.Bool
	// hold, when set, runs at the start of every fetch; a non-nil error
	// it returns is the fetch's.
	hold func(ctx context.Context, off int64) error
}

func (m *memSource) fetch(ctx context.Context, off int64, p []byte) error {
	if m.hold != nil {
		if err := m.hold(ctx, off); err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if m.fail.Load() {
		return errors.New("memSource: injected fetch failure")
	}
	m.fetches.Add(1)
	end := off + int64(len(p))
	if end > int64(len(m.data)) {
		return fmt.Errorf("memSource: fetch [%d,+%d) past size %d", off, len(p), len(m.data))
	}
	copy(p, m.data[off:end])
	return nil
}

func (m *memSource) reader(readahead int) *stream.Reader {
	return stream.NewReader(context.Background(), stream.ReaderConfig{
		Fetch:     m.fetch,
		Size:      int64(len(m.data)),
		BlockSize: B,
		Readahead: readahead,
	})
}

// memSink is an in-memory blob accepting offset writes and appends.
type memSink struct {
	mu      sync.Mutex
	data    []byte
	commits []string // op log: "w@off:len" / "a:len"
	failPfx atomic.Bool
}

func (m *memSink) writeAt(ctx context.Context, off int64, p []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if m.failPfx.Load() {
		return errors.New("memSink: injected commit failure")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if need := off + int64(len(p)); int64(len(m.data)) < need {
		m.data = append(m.data, make([]byte, need-int64(len(m.data)))...)
	}
	copy(m.data[off:], p)
	m.commits = append(m.commits, fmt.Sprintf("w@%d:%d", off, len(p)))
	return nil
}

func (m *memSink) append(ctx context.Context, p []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if m.failPfx.Load() {
		return errors.New("memSink: injected commit failure")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data = append(m.data, p...)
	m.commits = append(m.commits, fmt.Sprintf("a:%d", len(p)))
	return nil
}

func (m *memSink) bytes() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]byte(nil), m.data...)
}

// writer streams into the sink from offset 0 through writeAt.
func (m *memSink) writer(depth int) *stream.Writer {
	return stream.NewWriter(context.Background(), stream.WriterConfig{
		BlockSize: B,
		Depth:     depth,
		WriteAt:   m.writeAt,
	})
}

// appender streams onto the sink's end through append, starting where
// the sink's content ends.
func (m *memSink) appender(depth int) *stream.Writer {
	return stream.NewWriter(context.Background(), stream.WriterConfig{
		BlockSize: B,
		Depth:     depth,
		Start:     func(context.Context) (int64, error) { return int64(len(m.bytes())), nil },
		Append:    m.append,
	})
}

// TestReaderSequentialPipelined: a sequential stream through a wide
// window returns exact bytes and actually uses the readahead pipeline.
func TestReaderSequentialPipelined(t *testing.T) {
	src := &memSource{data: pattern('r', 7*B+321)}
	r := src.reader(3)
	defer r.Close()
	var got []byte
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, src.data) {
		t.Fatalf("round trip mismatch: %d vs %d bytes", len(got), len(src.data))
	}
	st := r.ReadStats()
	if st.Prefetched == 0 || st.PrefetchHits == 0 {
		t.Errorf("sequential stream should use the readahead window, stats = %+v", st)
	}
}

// TestReaderSeekCancelsWindow: seeking away from a warm run drops and
// cancels the unconsumed prefetches.
func TestReaderSeekCancelsWindow(t *testing.T) {
	src := &memSource{data: pattern('s', 8*B)}
	r := src.reader(3)
	defer r.Close()
	buf := make([]byte, 100)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatal(err)
	}
	if st := r.ReadStats(); st.Prefetched == 0 {
		t.Fatalf("sequential start should prefetch, stats = %+v", st)
	}
	if _, err := r.Seek(7*B, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if st := r.ReadStats(); st.Canceled == 0 {
		t.Errorf("Seek away should cancel the window, stats = %+v", st)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src.data[7*B:]) {
		t.Error("read after seek mismatch")
	}
}

// TestReaderRefetchesAfterEverySeekBack: a Read waiting on a block
// whose fetch a Seek canceled fetches it again when the stream is back
// at the Read's position, however many times that happens. Here two
// Seeks away and back each cancel a held fetch; the third fetch runs.
// A reader that refetched only once returned the second cancel as the
// Read's error.
func TestReaderRefetchesAfterEverySeekBack(t *testing.T) {
	const at = 2 * B
	held := make(chan struct{})
	var calls atomic.Int32
	src := &memSource{data: pattern('k', 6*B)}
	src.hold = func(ctx context.Context, off int64) error {
		if calls.Add(1) > 2 {
			return nil
		}
		held <- struct{}{}
		<-ctx.Done()
		return ctx.Err()
	}
	r := src.reader(0)
	defer r.Close()
	if _, err := r.Seek(at, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	type result struct {
		n   int
		err error
	}
	read := make(chan result, 1)
	buf := make([]byte, 100)
	go func() {
		n, err := r.Read(buf)
		read <- result{n, err}
	}()
	for i := range 2 {
		select {
		case <-held:
		case res := <-read:
			t.Fatalf("Read returned (%d, %v) before fetch %d was held", res.n, res.err, i+1)
		case <-time.After(10 * time.Second):
			t.Fatalf("fetch %d never started", i+1)
		}
		// The Read waits with the lock down: away cancels its fetch, and
		// back puts the stream where the Read started.
		if _, err := r.Seek(5*B, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Seek(at, io.SeekStart); err != nil {
			t.Fatal(err)
		}
	}
	var res result
	select {
	case res = <-read:
	case <-time.After(10 * time.Second):
		t.Fatal("Read never returned")
	}
	if res.err != nil || !bytes.Equal(buf[:res.n], src.data[at:at+res.n]) || res.n == 0 {
		t.Fatalf("Read = (%d, %v), want bytes from %d", res.n, res.err, at)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("%d fetches, want 3: two canceled, one served", got)
	}
}

// TestReaderClosedSemantics: Read and Seek on a closed reader return
// ErrReaderClosed, matching the shared ErrClosed sentinel.
func TestReaderClosedSemantics(t *testing.T) {
	src := &memSource{data: pattern('c', B)}
	r := src.reader(0)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(make([]byte, 8)); !errors.Is(err, stream.ErrReaderClosed) || !errors.Is(err, stream.ErrClosed) {
		t.Errorf("Read after Close = %v, want ErrReaderClosed matching ErrClosed", err)
	}
	if _, err := r.Seek(0, io.SeekStart); !errors.Is(err, stream.ErrReaderClosed) {
		t.Errorf("Seek after Close = %v, want ErrReaderClosed", err)
	}
	if err := r.Close(); err != nil {
		t.Errorf("double Close = %v", err)
	}
}

// TestReaderCloseDoesNotWaitOnFetch: with no readahead, a Read's fetch
// still runs with the reader's lock down, so Close returns at once
// while it is pending and the Read ends with ErrReaderClosed.
func TestReaderCloseDoesNotWaitOnFetch(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	r := stream.NewReader(context.Background(), stream.ReaderConfig{
		Fetch: func(ctx context.Context, off int64, p []byte) error {
			close(started)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-release:
				return errors.New("fetch released by the test's end")
			}
		},
		Size:      B,
		BlockSize: B,
	})
	read := make(chan error, 1)
	go func() {
		_, err := r.Read(make([]byte, 8))
		read <- err
	}()
	<-started
	closed := make(chan error, 1)
	go func() { closed <- r.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(100 * time.Millisecond):
		t.Fatal("Close still blocked 100 ms into a pending fetch")
	}
	if err := <-read; !errors.Is(err, stream.ErrReaderClosed) {
		t.Errorf("Read cut short by Close = %v, want ErrReaderClosed", err)
	}
}

// TestWriterOffsetModeCommitsAlignedBlocks: an offset stream commits
// whole blocks at block-aligned offsets plus one final partial block.
func TestWriterOffsetModeCommitsAlignedBlocks(t *testing.T) {
	sink := &memSink{}
	w := sink.writer(0)
	data := pattern('o', 3*B+100)
	for off := 0; off < len(data); off += 777 {
		end := min(off+777, len(data))
		if _, err := w.Write(data[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sink.bytes(), data) {
		t.Fatal("offset stream content mismatch")
	}
	for _, c := range sink.commits {
		var off, ln int
		if _, err := fmt.Sscanf(c, "w@%d:%d", &off, &ln); err != nil {
			t.Fatalf("unexpected commit op %q", c)
		}
		if off%B != 0 {
			t.Errorf("unaligned commit %q", c)
		}
	}
}

// TestWriterWriteBehindParity: the same stream through depth-0 and
// deep windows produces identical content (the old bsfs-internal
// pipeline's ablation contract, now pinned at the engine level).
func TestWriterWriteBehindParity(t *testing.T) {
	data := pattern('p', 5*B+1234)
	run := func(depth int) []byte {
		sink := &memSink{}
		w := sink.writer(depth)
		for off := 0; off < len(data); off += 4096 {
			end := min(off+4096, len(data))
			if _, err := w.Write(data[off:end]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return sink.bytes()
	}
	syncBytes := run(0)
	pipeBytes := run(4)
	if !bytes.Equal(syncBytes, data) || !bytes.Equal(pipeBytes, data) {
		t.Fatal("content mismatch against source")
	}
}

// TestWriterAppendModeSingleWorkerOrdered: append-mode write-behind
// must keep commit order (one worker), so the sink's append log is the
// stream's block order.
func TestWriterAppendModeSingleWorkerOrdered(t *testing.T) {
	sink := &memSink{}
	w := sink.appender(3)
	data := pattern('q', 6*B)
	for off := 0; off < len(data); off += 999 {
		end := min(off+999, len(data))
		if _, err := w.Write(data[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sink.bytes(), data) {
		t.Fatal("append stream out of order or corrupted")
	}
	for _, c := range sink.commits {
		if c != fmt.Sprintf("a:%d", B) {
			t.Errorf("commit %q from an aligned start, want whole blocks", c)
		}
	}
}

// TestWriterShortFirstBlock: a stream that starts mid-block cuts its
// blocks on the file's block boundaries, so only its first block is
// short and every later one but the last is whole and aligned, through
// appends and fixed-offset writes alike, synchronous or write-behind.
func TestWriterShortFirstBlock(t *testing.T) {
	const start = B + 100
	old := pattern('x', start)
	added := pattern('z', 2*B+50)
	for _, depth := range []int{0, 2} {
		for _, appending := range []bool{true, false} {
			sink := &memSink{}
			if err := sink.writeAt(context.Background(), 0, old); err != nil {
				t.Fatal(err)
			}
			sink.commits = nil
			w := sink.appender(depth)
			want := []string{fmt.Sprintf("a:%d", B-100), fmt.Sprintf("a:%d", B), "a:150"}
			if !appending {
				w = stream.NewWriter(context.Background(), stream.WriterConfig{
					BlockSize: B,
					Depth:     depth,
					Start:     func(context.Context) (int64, error) { return start, nil },
					WriteAt:   sink.writeAt,
				})
				want = []string{fmt.Sprintf("w@%d:%d", start, B-100), fmt.Sprintf("w@%d:%d", 2*B, B), fmt.Sprintf("w@%d:150", 3*B)}
			}
			for off := 0; off < len(added); off += 1000 {
				if _, err := w.Write(added[off:min(off+1000, len(added))]); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sink.bytes(), append(old, added...)) {
				t.Errorf("depth %d, appending %v: content mismatch", depth, appending)
			}
			if !appending {
				slices.Sort(sink.commits) // write-behind writes run side by side
				slices.Sort(want)
			}
			if !slices.Equal(sink.commits, want) {
				t.Errorf("depth %d, appending %v: commits %v, want %v", depth, appending, sink.commits, want)
			}
		}
	}
}

// TestWriterErrorLatchedAndCloseContract: a background commit failure
// surfaces on a later Write, and every subsequent Close keeps
// reporting it; a failed final flush never latches success.
func TestWriterErrorLatchedAndCloseContract(t *testing.T) {
	sink := &memSink{}
	w := sink.writer(2)
	if _, err := w.Write(pattern('e', B)); err != nil {
		t.Fatal(err)
	}
	sink.failPfx.Store(true)
	var werr error
	for i := 0; i < 64 && werr == nil; i++ {
		_, werr = w.Write(pattern('e', B))
	}
	if werr == nil {
		// The window may have committed everything before the injection;
		// the error must then surface on Close.
		if err := w.Close(); err == nil {
			t.Fatal("commit failure never surfaced on Write or Close")
		}
	} else {
		first := w.Close()
		if first == nil {
			t.Fatal("Close after latched error returned nil")
		}
		if second := w.Close(); second == nil {
			t.Fatal("repeat Close dropped the latched error")
		}
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Fatal("Write after failed Close returned nil")
	}

	// Synchronous tail-loss pin: a failing final flush keeps failing on
	// repeat Close instead of silently reporting the tail durable.
	sink2 := &memSink{}
	w2 := sink2.writer(0)
	if _, err := w2.Write(pattern('f', B/2)); err != nil {
		t.Fatal(err)
	}
	sink2.failPfx.Store(true)
	if err := w2.Close(); err == nil {
		t.Fatal("Close with failing flush returned nil")
	}
	if err := w2.Close(); err == nil {
		t.Fatal("repeat Close after failed flush returned nil (tail silently lost)")
	}
	// A failed Close does NOT latch the writer closed: the unflushed
	// tail is preserved and retrying is allowed once the fault clears.
	sink2.failPfx.Store(false)
	if err := w2.Close(); err != nil {
		t.Fatalf("retried Close after fault cleared = %v", err)
	}
	if !bytes.Equal(sink2.bytes(), pattern('f', B/2)) {
		t.Fatal("retried Close lost the tail")
	}
	if _, err := w2.Write([]byte("x")); !errors.Is(err, stream.ErrWriterClosed) {
		t.Fatalf("Write after successful Close = %v, want ErrWriterClosed", err)
	}
}

// TestReaderConcurrentSeekReadRace exercises Seek racing Read under
// the race detector at the engine level (no cluster underneath).
func TestReaderConcurrentSeekReadRace(t *testing.T) {
	src := &memSource{data: pattern('R', 8*B)}
	r := src.reader(3)
	defer r.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		offs := []int64{5 * B, 0, 3 * B, 7 * B, B, 6 * B, 2 * B, 4 * B}
		for round := 0; round < 10; round++ {
			for _, off := range offs {
				if _, err := r.Seek(off, io.SeekStart); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	buf := make([]byte, 4096)
	for {
		_, err := r.Read(buf)
		if err == io.EOF {
			select {
			case <-done:
				return
			default:
				if _, err := r.Seek(0, io.SeekStart); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestPipelinedReadAllocatesOnlyItsGoroutines: a sequential read through
// the readahead window allocates, per block, the closure of the
// goroutine that fetches it: the window's context is shared, block
// records and buffers are recycled. Per reader there is a handful more
// (the reader, its window map, the context, the first records).
func TestPipelinedReadAllocatesOnlyItsGoroutines(t *testing.T) {
	const blocks = 64
	src := &memSource{data: pattern('a', blocks*B)}
	p := make([]byte, B/4)
	readAll := func() {
		r := src.reader(2)
		for {
			if _, err := r.Read(p); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		r.Close()
	}
	if perBlock := testing.AllocsPerRun(20, readAll) / blocks; perBlock > 1.5 {
		t.Errorf("a pipelined read allocates %.2f times per block, want its goroutine's closure and little more", perBlock)
	}
}

// runSink is a memSink whose stream has runs: it logs every EndRun,
// with how many bytes the sink held when it came.
type runSink struct {
	memSink
	ends    []string     // "end@<end>:<bytes held>" or "failed"
	endFail error        // what EndRun returns
	failOff atomic.Int64 // the block offset whose commit fails, when > 0
}

func (m *runSink) writer(depth int) *stream.Writer {
	return stream.NewWriter(context.Background(), stream.WriterConfig{
		BlockSize: B,
		Depth:     depth,
		WriteAt: func(ctx context.Context, off int64, p []byte) error {
			if f := m.failOff.Load(); f > 0 && off == f {
				return errors.New("runSink: injected commit failure")
			}
			return m.writeAt(ctx, off, p)
		},
		EndRun: func(_ context.Context, end int64, failed error) error {
			if failed != nil {
				m.ends = append(m.ends, "failed")
				return failed
			}
			m.ends = append(m.ends, fmt.Sprintf("end@%d:%d", end, len(m.bytes())))
			return m.endFail
		},
	})
}

// TestWriterRunsEndEveryRunBlocks: a writer with an EndRun ends a run
// after every RunBlocks blocks and at Close, each time with every block
// of the run committed, synchronous or write-behind.
func TestWriterRunsEndEveryRunBlocks(t *testing.T) {
	const R = stream.RunBlocks
	data := pattern('r', (2*R+3)*B+100)
	for _, depth := range []int{0, 3} {
		sink := &runSink{}
		w := sink.writer(depth)
		for off := 0; off < len(data); off += 1000 {
			if _, err := w.Write(data[off:min(off+1000, len(data))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sink.bytes(), data) {
			t.Errorf("depth %d: content mismatch", depth)
		}
		want := []string{fmt.Sprintf("end@%d:%d", R*B, R*B), fmt.Sprintf("end@%d:%d", 2*R*B, 2*R*B), fmt.Sprintf("end@%d:%d", len(data), len(data))}
		if !slices.Equal(sink.ends, want) {
			t.Errorf("depth %d: runs ended %v, want %v", depth, sink.ends, want)
		}
	}
}

// TestWriterFailedRunIsLatched: a failed commit ends its run failed,
// once, and a failed EndRun fails the stream: either way the run's
// committed blocks are gone, so no retry may report the stream written.
func TestWriterFailedRunIsLatched(t *testing.T) {
	for _, depth := range []int{0, 2} {
		sink := &runSink{}
		sink.failOff.Store(3 * B)
		w := sink.writer(depth)
		_, werr := w.Write(pattern('f', 5*B))
		if werr == nil && depth == 0 {
			t.Errorf("depth %d: a synchronous failed commit did not fail its Write", depth)
		}
		if depth == 0 {
			sink.failOff.Store(0) // the fault clears: the run's lost blocks stay lost
		}
		cerr := w.Close()
		if cerr == nil || w.Close() == nil {
			t.Errorf("depth %d: Close after a failed commit = %v, then nil", depth, cerr)
		}
		if !slices.Equal(sink.ends, []string{"failed"}) {
			t.Errorf("depth %d: runs ended %v, want one failed", depth, sink.ends)
		}
	}

	// The last run's EndRun fails at Close: no retry succeeds.
	sink := &runSink{endFail: errors.New("runSink: publish refused")}
	w := sink.writer(2)
	if _, err := w.Write(pattern('g', B/2)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); !errors.Is(err, sink.endFail) {
		t.Fatalf("Close with a failing EndRun = %v", err)
	}
	if err := w.Close(); !errors.Is(err, sink.endFail) {
		t.Fatalf("repeat Close after a failed EndRun = %v", err)
	}
	if len(sink.ends) != 1 {
		t.Errorf("runs ended %v, want the one", sink.ends)
	}
}
