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

// WriterConfig wires a Writer to its blob.
type WriterConfig struct {
	// BlockSize is the commit granularity: blocks are cut on the file's
	// block boundaries, counted from where the stream starts, so only
	// the first (short when the stream starts mid-block) and the final
	// one (committed at Close) may be partial.
	BlockSize int64
	// Depth is the write-behind window: up to this many full-block
	// commits proceed in the background while Write keeps buffering.
	// <= 0 keeps writes fully synchronous — each block commit completes
	// before Write returns.
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
// block.
type Writer struct {
	ctx       context.Context
	cfg       WriterConfig
	blockSize int64
	depth     int

	mu       sync.Mutex
	started  bool
	written  int64  // file offset of the next flush
	buf      []byte // a wire.GetBuf slice of block capacity, recycled after its commit
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
	depth := cfg.Depth
	if depth < 0 {
		depth = 0
	}
	cfg.Metrics = orNoMetrics(cfg.Metrics)
	cfg.Metrics.writersOpen.Add(1)
	return &Writer{
		ctx:       ctx,
		cfg:       cfg,
		blockSize: cfg.BlockSize,
		depth:     depth,
	}
}

// asyncErr returns the latched background commit error, if any.
func (w *Writer) asyncErr() error {
	w.errMu.Lock()
	defer w.errMu.Unlock()
	return w.werr
}

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
			w.buf = wire.GetBuf(int(w.blockSize))
		}
		room := int(w.blockSize) - len(w.buf)
		if room <= 0 {
			if err := w.lockedFlush(false); err != nil {
				return total, err
			}
			room = int(w.blockSize) - len(w.buf)
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
	if int64(len(w.buf)) >= w.blockSize {
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
// the buffered data stays put, so a transient failure loses nothing;
// else the buffer is reused.
func (w *Writer) lockedFlush(final bool) error {
	if len(w.buf) == 0 {
		return nil
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
		n := int(w.blockSize - w.written%w.blockSize) // to the next block boundary
		if len(w.buf) < n {
			if !final {
				return nil // no whole block buffered yet
			}
			n = len(w.buf)
		}
		if w.depth > 0 && !final {
			if err := w.asyncErr(); err != nil {
				return err
			}
			w.lockedEnqueue(n)
			continue
		}
		if err := w.commit(w.written, w.buf[:n]); err != nil {
			return err
		}
		w.written += int64(n)
		w.buf = w.buf[:copy(w.buf, w.buf[n:])]
	}
	return nil
}

// lockedEnqueue hands the first n buffered bytes to the write-behind
// pool as one block, blocking while the window is full.
func (w *Writer) lockedEnqueue(n int) {
	// The block travels in its own buffer (the worker recycles it);
	// whatever lies past it moves to a fresh one, taken only if needed.
	blk, rest := wbBlock{off: w.written, data: w.buf[:n]}, w.buf[n:]
	if w.buf = nil; len(rest) > 0 {
		w.buf = append(wire.GetBuf(int(w.blockSize)), rest...)
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
	w.queue = make(chan wbBlock, w.depth)
	workers := w.depth
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

// Close drains the write-behind window, then commits the final
// (possibly partial) block. A failed Close does not latch the writer
// closed-with-success: retrying is allowed (the unflushed tail is
// preserved), and once a background commit error is latched every
// further Close reports it instead of pretending the data is safe.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.closeErr
	}
	if w.queue != nil {
		close(w.queue)
		w.wg.Wait()
		w.queue = nil
	}
	if err := w.asyncErr(); err != nil {
		w.closed = true
		w.closeErr = err
		w.cfg.Metrics.writersOpen.Add(-1)
		return err
	}
	if err := w.lockedFlush(true); err != nil {
		return err
	}
	wire.PutBuf(w.buf)
	w.buf = nil
	w.closed = true
	w.cfg.Metrics.writersOpen.Add(-1)
	return nil
}
