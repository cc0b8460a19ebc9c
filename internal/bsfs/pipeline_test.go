package bsfs_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"blobseer/internal/bsfs"
	"blobseer/internal/cluster"
	"blobseer/internal/fs"
)

// startPipelinedFS deploys a cluster whose BSFS clients use the given
// streaming windows (negative disables, 0 picks the defaults).
func startPipelinedFS(t *testing.T, readahead, writeBehind int) (*bsfs.FS, *cluster.BlobSeer) {
	t.Helper()
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders:    4,
		MetaProviders:    2,
		BlockSize:        B,
		ReadaheadBlocks:  readahead,
		WriteBehindDepth: writeBehind,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	f, err := cl.NewBSFS("")
	if err != nil {
		t.Fatal(err)
	}
	return f, cl
}

// TestPipelinedRoundTrip streams a multi-block file through wide
// readahead and write-behind windows using Hadoop-sized 4 KB calls and
// checks byte equality — the pipelined path must be invisible to the
// application.
func TestPipelinedRoundTrip(t *testing.T) {
	f, _ := startPipelinedFS(t, 3, 3)
	ctx := context.Background()
	data := pattern('P', 7*B+321)

	w, err := f.Create(ctx, "/pipe/file", true)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); off += 4096 {
		end := min(off+4096, len(data))
		if _, err := w.Write(data[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := f.Open(ctx, "/pipe/file")
	if err != nil {
		t.Fatal(err)
	}
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
	if !bytes.Equal(got, data) {
		t.Fatalf("pipelined round trip mismatch: %d vs %d bytes", len(got), len(data))
	}

	st := r.(bsfs.PipelinedReader).ReadStats()
	if st.Prefetched == 0 || st.PrefetchHits == 0 {
		t.Errorf("sequential stream should use the readahead window, stats = %+v", st)
	}
}

// TestReadaheadCanceledOnSeek: a sequential read at the start of the
// file launches prefetches for the following blocks; seeking away must
// drop (and cancel) the unconsumed window rather than let it fetch
// blocks the stream no longer wants.
func TestReadaheadCanceledOnSeek(t *testing.T) {
	f, _ := startPipelinedFS(t, 3, 0)
	ctx := context.Background()
	data := pattern('S', 8*B)
	writeFile(t, f, "/pipe/seek", data)

	r, err := f.Open(ctx, "/pipe/seek")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Consume a little of block 0: blocks 1..3 enter the window.
	buf := make([]byte, 100)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatal(err)
	}
	if st := r.(bsfs.PipelinedReader).ReadStats(); st.Prefetched == 0 {
		t.Fatalf("sequential start should prefetch, stats = %+v", st)
	}

	// Jump to the last block: the prefetched window is dead.
	if _, err := r.Seek(7*B, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	st := r.(bsfs.PipelinedReader).ReadStats()
	if st.Canceled == 0 {
		t.Errorf("Seek away should cancel the readahead window, stats = %+v", st)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[7*B:]) {
		t.Error("read after seek mismatch")
	}
}

// TestReaderSeekStormUnderReadahead hammers Seek/Read interleavings so
// the race detector can chew on the cancellation paths, verifying
// position correctness throughout.
func TestReaderSeekStormUnderReadahead(t *testing.T) {
	f, _ := startPipelinedFS(t, 2, 0)
	ctx := context.Background()
	data := pattern('R', 6*B+17)
	writeFile(t, f, "/pipe/storm", data)

	r, err := f.Open(ctx, "/pipe/storm")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	offs := []int64{0, 3 * B, B / 2, 5 * B, 2*B + 7, 0, 4 * B, B}
	buf := make([]byte, B/3)
	for round := 0; round < 3; round++ {
		for _, off := range offs {
			if _, err := r.Seek(off, io.SeekStart); err != nil {
				t.Fatal(err)
			}
			n, err := io.ReadFull(r, buf)
			if err != nil && err != io.ErrUnexpectedEOF {
				t.Fatal(err)
			}
			if !bytes.Equal(buf[:n], data[off:off+int64(n)]) {
				t.Fatalf("read at %d mismatch", off)
			}
		}
	}
}

// TestWriteBehindErrorLatched: killing the writer's context mid-stream
// makes a background commit fail; the error must surface on a later
// Write (or Close), and every subsequent Close must keep reporting it
// instead of pretending the data landed.
func TestWriteBehindErrorLatched(t *testing.T) {
	f, _ := startPipelinedFS(t, 0, 2)
	ctx, cancel := context.WithCancel(context.Background())
	w, err := f.Create(ctx, "/pipe/err", true)
	if err != nil {
		t.Fatal(err)
	}
	block := pattern('E', B)
	if _, err := w.Write(block); err != nil {
		t.Fatal(err)
	}
	cancel()
	var werr error
	for i := 0; i < 64 && werr == nil; i++ {
		_, werr = w.Write(block)
	}
	if werr == nil {
		t.Fatal("background commit error never surfaced on Write")
	}
	first := w.Close()
	if first == nil {
		t.Fatal("Close after latched write-behind error returned nil")
	}
	if second := w.Close(); second == nil {
		t.Fatal("repeat Close dropped the latched error")
	} else if !errors.Is(second, first) && second.Error() != first.Error() {
		t.Fatalf("repeat Close = %v, want the latched %v", second, first)
	}
}

// TestCloseDrainsWriteBehindInOrder: an append-mode stream commits
// through a single ordered worker; Close must drain the window before
// the final partial block so the file content is exactly the stream.
func TestCloseDrainsWriteBehindInOrder(t *testing.T) {
	f, _ := startPipelinedFS(t, 0, 3)
	ctx := context.Background()
	first := pattern('1', 2*B) // aligned: native append path
	writeFile(t, f, "/pipe/order", first)

	w, err := f.Append(ctx, "/pipe/order")
	if err != nil {
		t.Fatal(err)
	}
	second := pattern('2', 5*B+99)
	for off := 0; off < len(second); off += 777 {
		end := min(off+777, len(second))
		if _, err := w.Write(second[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := readFile(t, f, "/pipe/order")
	want := append(append([]byte(nil), first...), second...)
	if !bytes.Equal(got, want) {
		t.Fatalf("drained append stream mismatch: %d vs %d bytes", len(got), len(want))
	}
}

// TestWriterCloseDoesNotLatchSuccessOnError is the regression pin for
// the pre-fix bug: writer.Close set closed=true before flushing, so a
// flush failure made the SECOND Close return nil — silently reporting
// a lost tail as durable. Close must never return nil after a failed
// flush of buffered data.
func TestWriterCloseDoesNotLatchSuccessOnError(t *testing.T) {
	f, _ := startPipelinedFS(t, 0, -1) // synchronous writer: the original bug's path
	ctx, cancel := context.WithCancel(context.Background())
	w, err := f.Create(ctx, "/pipe/lost-tail", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(pattern('T', B/2)); err != nil { // partial tail only
		t.Fatal(err)
	}
	cancel() // the final flush will fail
	if err := w.Close(); err == nil {
		t.Fatal("Close with a failing flush returned nil")
	}
	if err := w.Close(); err == nil {
		t.Fatal("repeat Close after a failed flush returned nil (tail silently lost)")
	}
}

// TestReaderClosedSemantics is the regression pin for the closed-reader
// fixes: Read after Close must return ErrReaderClosed (not the writer
// sentinel), Seek after Close must fail too, and both must match the
// shared fs.ErrClosed.
func TestReaderClosedSemantics(t *testing.T) {
	f, _ := startFS(t)
	writeFile(t, f, "/pipe/closed", pattern('c', B))
	r, err := f.Open(context.Background(), "/pipe/closed")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(make([]byte, 10)); !errors.Is(err, fs.ErrReaderClosed) {
		t.Errorf("Read after Close = %v, want ErrReaderClosed", err)
	}
	if _, err := r.Seek(0, io.SeekStart); !errors.Is(err, fs.ErrReaderClosed) {
		t.Errorf("Seek after Close = %v, want ErrReaderClosed", err)
	}
	if _, err := r.Read(nil); !errors.Is(err, fs.ErrClosed) {
		t.Errorf("closed-reader error should match the shared fs.ErrClosed, got %v", err)
	}
	if err := r.Close(); err != nil {
		t.Errorf("double Close = %v", err)
	}
	// The writer side still matches both its own sentinel and ErrClosed.
	w, err := f.Create(context.Background(), "/pipe/closed-w", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("x")); !errors.Is(err, fs.ErrWriterClosed) || !errors.Is(err, fs.ErrClosed) {
		t.Errorf("Write after Close = %v, want ErrWriterClosed (and ErrClosed)", err)
	}
}

// TestSyncModeMatchesPipelined pins the ablation contract byte-for-byte:
// the same stream written and read through depth-0 windows and through
// wide windows produces identical file content.
func TestSyncModeMatchesPipelined(t *testing.T) {
	data := pattern('A', 5*B+1234)
	read := func(readahead, writeBehind int) []byte {
		f, _ := startPipelinedFS(t, readahead, writeBehind)
		writeFile(t, f, "/mode/file", data)
		return readFile(t, f, "/mode/file")
	}
	syncBytes := read(-1, -1)
	pipeBytes := read(4, 4)
	if !bytes.Equal(syncBytes, data) || !bytes.Equal(pipeBytes, data) {
		t.Fatal("mode content mismatch against source")
	}
	if !bytes.Equal(syncBytes, pipeBytes) {
		t.Fatal("synchronous and pipelined modes disagree byte-for-byte")
	}
}

// TestConcurrentSeekDuringPipelinedRead pins the raced-seek contract:
// with one goroutine seeking while another reads, every successful
// Read must return ONE contiguous range of the file — never bytes from
// the pre-seek position stitched to the post-seek one, and never a
// range silently skipped. The file encodes its own offsets (every
// 8-byte word holds its file offset), so contiguity is checkable from
// the returned bytes alone.
func TestConcurrentSeekDuringPipelinedRead(t *testing.T) {
	f, _ := startPipelinedFS(t, 3, 0)
	ctx := context.Background()
	const nBlocks = 8
	data := make([]byte, nBlocks*B)
	for off := 0; off < len(data); off += 8 {
		binary.LittleEndian.PutUint64(data[off:], uint64(off))
	}
	writeFile(t, f, "/pipe/raced", data)

	r, err := f.Open(ctx, "/pipe/raced")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	done := make(chan struct{})
	go func() { // seeker: 8-aligned jumps all over the file
		defer close(done)
		offs := []int64{5 * B, 0, 3 * B, 7 * B, B, 6 * B, 2 * B, 4 * B}
		for round := 0; round < 20; round++ {
			for _, off := range offs {
				if _, err := r.Seek(off+int64(round%B/8)*8, io.SeekStart); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		for i := 8; i+8 <= n; i += 8 {
			prev := binary.LittleEndian.Uint64(buf[i-8:])
			cur := binary.LittleEndian.Uint64(buf[i:])
			if cur != prev+8 {
				t.Fatalf("Read returned a stitched range: word %d then %d", prev, cur)
			}
		}
		if err == io.EOF {
			select {
			case <-done:
				if _, err := r.Seek(0, io.SeekStart); err != nil {
					t.Fatal(err)
				}
				got, err := io.ReadAll(r)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, data) {
					t.Fatal("full re-read after seek storm mismatch")
				}
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

// TestSeekWithinWarmWindowKeepsPipeline: a forward seek that lands on
// an already-prefetched block must not throw the window away — the
// run continues on the prefetched data.
func TestSeekWithinWarmWindowKeepsPipeline(t *testing.T) {
	f, _ := startPipelinedFS(t, 3, 0)
	ctx := context.Background()
	data := pattern('W', 8*B)
	writeFile(t, f, "/pipe/warm", data)

	r, err := f.Open(ctx, "/pipe/warm")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Read into block 0 sequentially: blocks 1..3 enter the window.
	buf := make([]byte, 100)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatal(err)
	}
	// An intra-block skip keeps everything warm.
	if _, err := r.Seek(B/2, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if st := r.(bsfs.PipelinedReader).ReadStats(); st.Canceled != 0 {
		t.Errorf("intra-block seek canceled %d prefetches, want 0", st.Canceled)
	}
	got := make([]byte, 64)
	if _, err := io.ReadFull(r, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[B/2:B/2+64]) {
		t.Fatal("intra-block seek read mismatch")
	}
}
