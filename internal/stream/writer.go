package stream

import (
	"context"
	"io"
	"sync"

	"blobseer/internal/wire"
)

// Default pipeline windows (Section IV-B), shared by every file system
// built on this engine: how many blocks a sequential reader fetches
// ahead of the stream position, and how many full-block commits a
// writer keeps in flight while the application keeps writing.
const (
	DefaultReadahead   = 2
	DefaultWriteBehind = 2
)

// RunBlocks is how many blocks a run of a writer with an EndRun holds.
// A BlobSeer create-mode stream publishes a run as one version, whose
// placement then holds 16×R addresses, as a 16-block Blob.Write's does,
// which the version manager keeps and a pin pages already. Past 16 a
// stream saves less than 1/16 of a version's cost per MB, while pins
// page more and readers wait longer to see bytes.
const RunBlocks = 16

// WriterConfig wires a Writer to its blob. A BlobSeer create-mode
// stream stores blocks through WriteAt and publishes runs through
// EndRun; an append stream publishes each block through Append.
type WriterConfig struct {
	// BlockSize is the commit granularity: blocks are cut on the file's
	// block boundaries, counted from where the stream starts, so only
	// the first (short when the stream starts mid-block) and the final
	// one (committed at Close) may be partial.
	BlockSize int64
	// Depth is the write-behind window: up to this many full-block
	// commits proceed in the background while Write keeps buffering
	// (Depth+1 block buffers at most). <= 0 keeps writes fully
	// synchronous — each block commit completes before Write returns.
	Depth int
	// Start tells, on first flush, where the stream starts (nil: at 0).
	// It runs at most once.
	Start func(ctx context.Context) (int64, error)
	// Append, when set, commits every block through the storage layer's
	// append, in stream order: the offset is fixed at assignment time.
	// Otherwise each block goes through WriteAt at its file offset.
	// Neither callback may retain data: it is a recycled block buffer
	// the writer refills as soon as the callback returns.
	Append  func(ctx context.Context, data []byte) error
	WriteAt func(ctx context.Context, off int64, data []byte) error
	// EndRun, when set, ends a run: the writer calls it after every
	// RunBlocks blocks and at Close, once the run's commits are done.
	// failed is nil if they all succeeded, the run reaching file offset
	// end; else it is the first commit error, and nothing of the run
	// may be made visible. An error it returns fails the stream.
	EndRun func(ctx context.Context, end int64, failed error) error
	// Metrics, when non-nil, counts this writer's write-behind activity
	// into its client's registry.
	Metrics *Metrics
}

// Writer is a sequential writer with write-behind buffering: data is
// committed one full block at a time; the final partial block is
// committed at Close (Section IV-B). With Depth > 0 full-block commits
// run on a bounded background worker pool while Write keeps buffering;
// commit errors are latched and surfaced on the next Write or Close,
// and Close drains the window before committing the final partial
// block. With an EndRun the window also drains at each run's end, and
// a failed commit is latched: the run's other blocks are lost with it.
type Writer struct {
	ctx context.Context
	cfg WriterConfig // Depth >= 0

	mu       sync.Mutex
	started  bool
	written  int64  // file offset of the next flush
	buf      []byte // a wire.GetBuf slice of block capacity, recycled after its commit
	run      int    // blocks handed on since the last run ended
	closed   bool
	closeErr error

	// Write-behind state (depth > 0). Workers never take mu, so
	// holding it across a blocking enqueue cannot deadlock.
	queue chan wbBlock
	wg    sync.WaitGroup

	errMu sync.Mutex
	werr  error // first background commit error, latched
}

var _ io.WriteCloser = (*Writer)(nil)

// wbBlock is one block handed to the write-behind pool, with the file
// offset it starts at.
type wbBlock struct {
	off  int64
	data []byte
}

// NewWriter returns a writer committing through cfg. The context is
// pinned for the writer's lifetime: canceling it fails all later
// commits.
func NewWriter(ctx context.Context, cfg WriterConfig) *Writer {
	cfg.Depth = max(cfg.Depth, 0)
	cfg.Metrics = orNoMetrics(cfg.Metrics)
	cfg.Metrics.writersOpen.Add(1)
	return &Writer{ctx: ctx, cfg: cfg}
}

// asyncErr returns the latched background commit error, if any.
func (w *Writer) asyncErr() error {
	w.errMu.Lock()
	defer w.errMu.Unlock()
	return w.werr
}

// setAsyncErr latches err unless one is latched already; nil is none.
func (w *Writer) setAsyncErr(err error) {
	w.errMu.Lock()
	if w.werr == nil {
		w.werr = err
	}
	w.errMu.Unlock()
}

// Write implements io.Writer.
func (w *Writer) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		if w.closeErr != nil {
			return 0, w.closeErr
		}
		return 0, ErrWriterClosed
	}
	if err := w.asyncErr(); err != nil {
		return 0, err
	}
	total := 0
	for len(p) > 0 {
		if w.buf == nil {
			w.buf = wire.GetBuf(int(w.cfg.BlockSize))
		}
		room := int(w.cfg.BlockSize) - len(w.buf)
		if room <= 0 {
			if err := w.lockedFlush(false); err != nil {
				return total, err
			}
			room = int(w.cfg.BlockSize) - len(w.buf)
		}
		n := len(p)
		if n > room {
			n = room
		}
		w.buf = append(w.buf, p[:n]...)
		p = p[n:]
		total += n
	}
	// Eagerly flush full blocks so long streams commit as they go.
	if int64(len(w.buf)) >= w.cfg.BlockSize {
		if err := w.lockedFlush(false); err != nil {
			return total, err
		}
	}
	return total, nil
}

// commit sends one block starting at file offset off.
func (w *Writer) commit(off int64, data []byte) error {
	if w.cfg.Append != nil {
		return w.cfg.Append(w.ctx, data)
	}
	return w.cfg.WriteAt(w.ctx, off, data)
}

// lockedFlush commits buffered data. Unless final, it only commits
// what reaches a block boundary, so every block but the stream's first
// and last is whole and aligned (the remainder stays buffered for the
// next round). With write-behind enabled, non-final flushes enqueue the
// blocks to the background pool instead of committing inline. On error
// the buffered data stays put, so a transient failure loses nothing,
// unless it failed a run; else the buffer is reused.
func (w *Writer) lockedFlush(final bool) error {
	if err := w.asyncErr(); err != nil || len(w.buf) == 0 {
		return err
	}
	if !w.started && w.cfg.Start != nil {
		off, err := w.cfg.Start(w.ctx)
		if err != nil {
			return err
		}
		w.written = off
	}
	w.started = true
	for len(w.buf) > 0 {
		n := int(w.cfg.BlockSize - w.written%w.cfg.BlockSize) // to the next block boundary
		if len(w.buf) < n {
			if !final {
				return nil // no whole block buffered yet
			}
			n = len(w.buf)
		}
		w.run++
		if w.cfg.Depth > 0 && !final {
			w.lockedEnqueue(n)
		} else if err := w.commit(w.written, w.buf[:n]); err != nil {
			if w.cfg.EndRun != nil {
				w.setAsyncErr(err) // the run is lost with its block
			}
			return err
		} else {
			w.written += int64(n)
			w.buf = w.buf[:copy(w.buf, w.buf[n:])]
		}
		if w.run == RunBlocks && w.cfg.EndRun != nil {
			if err := w.lockedEndRun(); err != nil {
				return err
			}
		}
	}
	return nil
}

// lockedDrain waits for the write-behind workers to finish and exit.
func (w *Writer) lockedDrain() {
	if w.queue != nil {
		close(w.queue)
		w.wg.Wait()
		w.queue = nil
	}
}

// lockedEndRun drains the window, ends the run, and returns the latched error.
func (w *Writer) lockedEndRun() error {
	w.lockedDrain()
	w.run = 0
	w.setAsyncErr(w.cfg.EndRun(w.ctx, w.written, w.asyncErr()))
	return w.asyncErr()
}

// lockedEnqueue hands the first n buffered bytes to the write-behind
// pool as one block, blocking while the window is full.
func (w *Writer) lockedEnqueue(n int) {
	// The block travels in its own buffer (the worker recycles it);
	// whatever lies past it moves to a fresh one, taken only if needed.
	blk, rest := wbBlock{off: w.written, data: w.buf[:n]}, w.buf[n:]
	if w.buf = nil; len(rest) > 0 {
		w.buf = append(wire.GetBuf(int(w.cfg.BlockSize)), rest...)
	}
	w.written += int64(n)
	w.lockedEnsureWorkers()
	w.cfg.Metrics.wbDepth.Add(1)
	w.queue <- blk
}

// lockedEnsureWorkers starts the commit pool on first use. WriteAt
// streams commit up to depth blocks concurrently (each block's offset
// is fixed at enqueue time, so completion order is irrelevant —
// exactly the write/write concurrency BlobSeer is built for). Appends
// use a single worker: offsets are assigned in arrival order, so
// in-flight appends from one stream must stay ordered.
func (w *Writer) lockedEnsureWorkers() {
	if w.queue != nil {
		return
	}
	w.queue = make(chan wbBlock, w.cfg.Depth)
	workers := w.cfg.Depth
	if w.cfg.Append != nil {
		workers = 1
	}
	for i := 0; i < workers; i++ {
		w.wg.Add(1)
		go w.commitLoop()
	}
}

// commitLoop drains the write-behind queue. After the first error the
// remaining blocks are discarded (the stream is broken anyway) so the
// producer never blocks on a dead pipeline.
func (w *Writer) commitLoop() {
	defer w.wg.Done()
	for blk := range w.queue {
		if w.asyncErr() != nil {
			wire.PutBuf(blk.data)
			w.cfg.Metrics.commitDone(0)
			continue
		}
		if err := w.commit(blk.off, blk.data); err != nil {
			w.setAsyncErr(err)
		}
		w.cfg.Metrics.commitDone(int64(len(blk.data)))
		wire.PutBuf(blk.data)
	}
}

// Close drains the write-behind window, commits the final (possibly
// partial) block and ends the run. A failed Close does not latch the
// writer closed-with-success: retrying is allowed (the unflushed tail
// is preserved), and once a background commit error is latched every
// further Close reports it instead of pretending the data is safe.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.closeErr
	}
	w.lockedDrain()
	if err := w.lockedFlush(true); err != nil && w.asyncErr() == nil {
		return err // nothing latched: the tail stays buffered for a retry
	}
	if w.run > 0 && w.cfg.EndRun != nil {
		w.lockedEndRun() // the last run, or what a failed one stored
	}
	if err := w.asyncErr(); err != nil {
		w.closed = true
		w.closeErr = err
		w.cfg.Metrics.writersOpen.Add(-1)
		return err
	}
	wire.PutBuf(w.buf)
	w.buf = nil
	w.closed = true
	w.cfg.Metrics.writersOpen.Add(-1)
	return nil
}
