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

// StartState is the write mode a Writer resolves on its first flush.
type StartState struct {
	// OffsetMode streams commit at self-tracked offsets (create-mode
	// streams, appends continuing after an unaligned-tail merge); when
	// false, commits go through the storage layer's native append and
	// the offset is fixed by the version manager at assignment time.
	OffsetMode bool
	// Off is the file offset of the first flush in offset mode.
	Off int64
	// Prefix is prepended to the stream's buffered data before the
	// first flush — the read-modify-write merge of an unaligned tail.
	Prefix []byte
}

// WriterConfig wires a Writer to its blob.
type WriterConfig struct {
	// BlockSize is the commit granularity: data is committed one full
	// block at a time, plus one final (possibly partial) block at Close.
	BlockSize int64
	// Depth is the write-behind window: up to this many full-block
	// commits proceed in the background while Write keeps buffering.
	// <= 0 keeps writes fully synchronous — each block commit completes
	// before Write returns.
	Depth int
	// Start resolves the write mode on first flush (nil = offset mode
	// from offset 0). It runs at most once.
	Start func(ctx context.Context) (StartState, error)
	// WriteAt commits data at a fixed, block-aligned offset (required).
	// Neither callback may retain data: it is a recycled block buffer
	// the writer refills as soon as the callback returns.
	WriteAt func(ctx context.Context, off int64, data []byte) error
	// Append commits data through the storage layer's native append
	// (required unless Start always selects offset mode).
	Append func(ctx context.Context, data []byte) error
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

	mu         sync.Mutex
	started    bool
	offsetMode bool   // create mode, or append after an unaligned-tail merge
	written    int64  // offset mode: file offset of the next flush
	buf        []byte // a wire.GetBuf slice of block capacity, recycled after its commit
	closed     bool
	closeErr   error

	// Write-behind state (depth > 0). Workers never take mu, so
	// holding it across a blocking enqueue cannot deadlock.
	queue chan wbBlock
	wg    sync.WaitGroup

	errMu sync.Mutex
	werr  error // first background commit error, latched
}

var _ io.WriteCloser = (*Writer)(nil)

// wbBlock is one full block handed to the write-behind pool. off < 0
// marks a block-aligned append (offset fixed by the version manager).
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

// lockedStart resolves the write mode on first flush through the Start
// hook: offset-tracked streams and merged unaligned-tail appends track
// offsets themselves; native appends leave offset assignment to the
// storage layer.
func (w *Writer) lockedStart() error {
	if w.started {
		return nil
	}
	st := StartState{OffsetMode: true}
	if w.cfg.Start != nil {
		var err error
		st, err = w.cfg.Start(w.ctx)
		if err != nil {
			return err
		}
	}
	w.offsetMode = st.OffsetMode
	w.written = st.Off
	if len(st.Prefix) > 0 {
		merged := append(append(wire.GetBuf(int(w.blockSize)+len(w.buf)), st.Prefix...), w.buf...)
		wire.PutBuf(w.buf)
		w.buf = merged
	}
	w.started = true
	return nil
}

// lockedFlush commits buffered data. Unless final, it only commits
// whole blocks so every flush offset stays block-aligned (the
// remainder stays buffered for the next round). With write-behind
// enabled, non-final flushes enqueue whole blocks to the background
// pool instead of committing inline. On error the buffered data stays
// put, so a transient failure loses nothing; else the buffer is reused.
func (w *Writer) lockedFlush(final bool) error {
	if len(w.buf) == 0 {
		return nil
	}
	if err := w.lockedStart(); err != nil {
		return err
	}
	if w.depth > 0 && !final {
		return w.lockedEnqueueFull()
	}
	flushLen := int64(len(w.buf))
	if !final {
		flushLen -= flushLen % w.blockSize
		if flushLen == 0 {
			return nil // no whole block buffered yet
		}
	}
	data := w.buf[:flushLen]
	if !w.offsetMode {
		// Native append: fully concurrent with other appenders, the
		// storage layer fixes the offset (Figure 5's workload).
		if err := w.cfg.Append(w.ctx, data); err != nil {
			return err
		}
	} else {
		if err := w.cfg.WriteAt(w.ctx, w.written, data); err != nil {
			return err
		}
		w.written += flushLen
	}
	w.buf = w.buf[:copy(w.buf, w.buf[flushLen:])]
	return nil
}

// lockedEnqueueFull hands every whole buffered block to the
// write-behind pool, blocking while the window is full.
func (w *Writer) lockedEnqueueFull() error {
	for int64(len(w.buf)) >= w.blockSize {
		if err := w.asyncErr(); err != nil {
			return err
		}
		// The block travels in its own buffer (the worker recycles it);
		// whatever lies past it moves to a fresh one, taken only if needed.
		blk, rest := wbBlock{off: -1, data: w.buf[:w.blockSize]}, w.buf[w.blockSize:]
		if w.buf = nil; len(rest) > 0 {
			w.buf = append(wire.GetBuf(int(w.blockSize)), rest...)
		}
		if w.offsetMode {
			blk.off = w.written
			w.written += w.blockSize
		}
		w.lockedEnsureWorkers()
		w.cfg.Metrics.wbDepth.Add(1)
		w.queue <- blk
	}
	return nil
}

// lockedEnsureWorkers starts the commit pool on first use. Offset-mode
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
	workers := 1
	if w.offsetMode {
		workers = w.depth
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
		var err error
		if blk.off >= 0 {
			err = w.cfg.WriteAt(w.ctx, blk.off, blk.data)
		} else {
			err = w.cfg.Append(w.ctx, blk.data)
		}
		if err != nil {
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
