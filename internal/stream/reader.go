package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"blobseer/internal/wire"
)

// Fetch reads [off, off+len(p)) of a pinned immutable snapshot into p,
// all of it or an error. Implementations must be safe for concurrent
// calls — the readahead window fetches several ranges at once — and
// must not touch p after returning: the reader recycles it.
type Fetch func(ctx context.Context, off int64, p []byte) error

// ReaderConfig wires a Reader to its snapshot.
type ReaderConfig struct {
	// Fetch supplies snapshot bytes (required).
	Fetch Fetch
	// Size is the pinned snapshot size; the stream EOFs there.
	Size int64
	// BlockSize is the caching and prefetch granularity.
	BlockSize int64
	// Readahead is the asynchronous prefetch window: up to this many
	// blocks are fetched by background goroutines ahead of a sequential
	// stream. <= 0 fetches nothing ahead — one block at a time, on
	// demand, with the reader's lock down so Close and Seek never wait
	// on it.
	Readahead int
	// Metrics, when non-nil, counts this reader's pipeline activity
	// into its client's registry.
	Metrics *Metrics
}

// ReadStats counts the reader-side pipeline activity (tests, tuning).
type ReadStats struct {
	Prefetched   int // background block fetches started ahead of pos
	PrefetchHits int // blocks consumed out of the readahead window
	Canceled     int // window entries dropped unconsumed by Seek/Close
}

// PipelinedReader is implemented by stream readers; callers can
// type-assert a generic reader to observe the readahead pipeline.
type PipelinedReader interface {
	ReadStats() ReadStats
}

// Reader is a sequential io.ReadSeekCloser over a pinned snapshot with
// whole-block prefetching: when the requested data is not cached, the
// full enclosing block is fetched (Section IV-B), so a Hadoop-style
// sequence of 4 KB reads costs one block transfer. Every block comes
// through the window, fetched by a background goroutine; with Readahead
// > 0 the reader also detects sequential access and keeps up to that
// many blocks in flight ahead of the stream position, so consuming
// block i overlaps the transfer of blocks i+1..i+N.
type Reader struct {
	ctx       context.Context
	fetch     Fetch
	size      int64
	blockSize int64
	readahead int

	mu       sync.Mutex
	landed   sync.Cond // on mu: broadcast when a background fetch finishes
	pos      int64
	cacheOff int64  // file offset of cached block (-1 = empty)
	cache    []byte // a wire.GetBuf slice, as is every window entry's: at most readahead+2 are live
	closed   bool

	nextSeq int64                // block start that would continue the sequential run (-1 = none)
	window  map[int64]*blockLoad // block start -> in-flight or completed background fetch
	idle    []*blockLoad         // loads done with, for the next startFetch
	running int                  // background fetches not finished, dropped ones included

	// The window's fetches run under wctx, made by the first one. A
	// window canceled while a fetch runs cancels it, and so does Close;
	// the next fetch then makes a new one.
	wctx    context.Context
	wcancel context.CancelFunc

	stats ReadStats
	m     *Metrics
}

var (
	_ io.ReadSeekCloser = (*Reader)(nil)
	_ PipelinedReader   = (*Reader)(nil)
)

// blockLoad is one asynchronous block fetch. Its buffer becomes the
// reader's cache when the stream consumes the load; a load dropped from
// the window recycles it, once the fetch goroutine is done with it.
//
// The record itself is the reader's to reuse (Reader.idle) once three
// things hold: its goroutine has finished, it has left the window
// (consumed or dropped) and no Read is waiting on it. Whichever of the
// three comes last recycles it (lockedRecycle).
type blockLoad struct {
	data []byte
	err  error

	// Under Reader.mu.
	finished bool // the fetch goroutine is done with the record
	dropped  bool // out of the window: data is no longer the load's to keep
	waiters  int  // Reads waiting for it to finish
}

// NewReader returns a reader over the snapshot described by cfg. The
// context is pinned for the reader's lifetime: canceling it aborts all
// outstanding fetches.
func NewReader(ctx context.Context, cfg ReaderConfig) *Reader {
	readahead := cfg.Readahead
	if readahead < 0 {
		readahead = 0
	}
	m := orNoMetrics(cfg.Metrics)
	m.readersOpen.Add(1)
	r := &Reader{
		ctx:       ctx,
		fetch:     cfg.Fetch,
		size:      cfg.Size,
		blockSize: cfg.BlockSize,
		readahead: readahead,
		cacheOff:  -1,
		nextSeq:   -1,
		window:    make(map[int64]*blockLoad),
		m:         m,
	}
	r.landed.L = &r.mu
	return r
}

// errSeekRaced reports that a concurrent Seek moved the stream while a
// pipelined fetch was waited on (the lock is released during the
// wait); the read loop resumes from the new position.
var errSeekRaced = errors.New("stream: seek raced a block fetch")

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, ErrReaderClosed
	}
	if r.pos >= r.size {
		return 0, io.EOF
	}
	n := 0
	for n < len(p) && r.pos < r.size {
		data, err := r.lockedFetch(r.pos)
		if errors.Is(err, errSeekRaced) {
			// A concurrent Seek moved the stream. Bytes already copied
			// stay a single contiguous range (return them); otherwise
			// resume from the position the Seek set.
			if n > 0 {
				return n, nil
			}
			continue
		}
		if err != nil {
			if n > 0 {
				return n, nil
			}
			return 0, err
		}
		want := min(int64(len(p)-n), r.size-r.pos)
		c := copy(p[n:int64(n)+want], data)
		n += c
		r.pos += int64(c)
		if c == 0 {
			break
		}
	}
	if n == 0 && r.pos >= r.size {
		return 0, io.EOF // a racing Seek pushed the stream to EOF
	}
	return n, nil
}

// lockedFetch returns cached bytes at file offset off, loading the
// enclosing block if needed.
func (r *Reader) lockedFetch(off int64) ([]byte, error) {
	blockStart := off / r.blockSize * r.blockSize
	if r.cacheOff != blockStart || off-blockStart >= int64(len(r.cache)) {
		if err := r.lockedLoadPipelined(off, blockStart, min(r.blockSize, r.size-blockStart)); err != nil {
			return nil, err
		}
	}
	return r.cache[off-r.cacheOff:], nil
}

// lockedLoadPipelined installs the block at blockStart into the cache
// through the readahead window: it consumes a background fetch if one
// is in flight (or starts one), launches the next window of prefetches
// when the access pattern is sequential, and waits with the lock
// released so Seek/Close stay responsive. off is the stream position
// the caller is serving; if a concurrent Seek moves r.pos off it while
// the lock is down, errSeekRaced tells the read loop to resume from
// the new position instead of mis-pairing old bytes with the new one.
func (r *Reader) lockedLoadPipelined(off, blockStart, length int64) error {
	f, hit := r.window[blockStart]
	if !hit {
		f = r.startFetch(blockStart, length)
		r.window[blockStart] = f
	} else {
		r.stats.PrefetchHits++
		r.m.prefetchHits.Inc()
	}

	// Sequential-access detection: the run continues (or starts at the
	// beginning of the file). Top the window back up before blocking on
	// the current block so the pipeline never drains.
	if blockStart == 0 || blockStart == r.nextSeq {
		for next := blockStart + r.blockSize; next < r.size && next <= blockStart+int64(r.readahead)*r.blockSize; next += r.blockSize {
			if _, ok := r.window[next]; ok {
				continue
			}
			ln := min(r.blockSize, r.size-next)
			r.window[next] = r.startFetch(next, ln)
			r.stats.Prefetched++
			r.m.prefetched.Inc()
		}
	}
	r.nextSeq = blockStart + r.blockSize

	// Blocks behind the stream position are dead weight: drop them.
	r.lockedPruneBehind(blockStart)

	for {
		f.waiters++
		for !f.finished {
			r.landed.Wait()
		}
		f.waiters--
		// A load a concurrent Seek dropped from the window no longer
		// owns its buffer: it counts as canceled whatever it fetched.
		err := f.err
		if r.window[blockStart] == f {
			delete(r.window, blockStart)
			if err == nil {
				wire.PutBuf(r.cache)
				r.cache, r.cacheOff = f.data, blockStart
			} else {
				wire.PutBuf(f.data)
			}
			f.data, f.dropped = nil, true
		} else if err == nil {
			err = context.Canceled
		}
		r.lockedRecycle(f)
		if r.closed {
			return ErrReaderClosed
		}
		if r.pos != off {
			return errSeekRaced // a fetched block stays cached; serve the new pos
		}
		if err == nil {
			return nil
		}
		// A fetch canceled by a concurrent Seek (whose target then turned
		// out to need this block after all) is not a stream error: fetch
		// it again, however many Seeks have moved the stream away and
		// back. With the reader open and its context live, only a Seek
		// cancels a fetch, so every pass here follows one and the loop
		// cannot spin.
		if !errors.Is(err, context.Canceled) || r.ctx.Err() != nil {
			return err
		}
		f = r.startFetch(blockStart, length)
		r.window[blockStart] = f
	}
}

// startFetch launches a background fetch of [blockStart,
// blockStart+length) under the window's context. What it allocates is
// the goroutine's closure; the record and the buffer are recycled.
func (r *Reader) startFetch(blockStart, length int64) *blockLoad {
	if r.wctx == nil {
		r.wctx, r.wcancel = context.WithCancel(r.ctx)
	}
	var f *blockLoad
	if n := len(r.idle); n > 0 {
		f, r.idle = r.idle[n-1], r.idle[:n-1]
		*f = blockLoad{}
	} else {
		f = new(blockLoad)
	}
	f.data = wire.GetBuf(int(r.blockSize))[:length]
	r.running++
	go r.load(r.wctx, f, blockStart)
	return f
}

// load runs one background fetch and wakes the Reads waiting for it.
func (r *Reader) load(ctx context.Context, f *blockLoad, blockStart int64) {
	err := r.fetch(ctx, blockStart, f.data)
	r.mu.Lock()
	f.err, f.finished = err, true
	r.running--
	if f.dropped {
		wire.PutBuf(f.data)
		f.data = nil
		r.lockedRecycle(f)
	}
	r.mu.Unlock()
	r.landed.Broadcast()
}

// lockedRecycle keeps f for the next startFetch once nothing refers to
// it: its fetch finished, it left the window and no Read waits on it.
// Under wire.PoisonReleased its error is scribbled over, so that a
// holder that outlived it fails instead of reading another block's
// outcome.
func (r *Reader) lockedRecycle(f *blockLoad) {
	if !f.finished || !f.dropped || f.waiters > 0 {
		return
	}
	*f = blockLoad{}
	if wire.Poisoning() {
		f.err, f.finished = errLoadReleased, true
	}
	r.idle = append(r.idle, f)
}

// errLoadReleased is what a recycled load reads as under
// wire.PoisonReleased, until it is reused.
var errLoadReleased = errors.New("stream: block load used after release")

// lockedCancelWindow drops every window entry and aborts the fetches
// still running, window entries or dropped earlier.
func (r *Reader) lockedCancelWindow() {
	r.lockedPruneBehind(r.size)
	r.nextSeq = -1
	if r.running > 0 && r.wcancel != nil {
		r.wcancel()
		r.wctx, r.wcancel = nil, nil
	}
}

// lockedPruneBehind drops window entries strictly behind blockStart,
// keeping the warm entries ahead of it. A dropped fetch still running
// finishes unless the window is canceled: there are at most readahead
// of them, and they share the window's context.
func (r *Reader) lockedPruneBehind(blockStart int64) {
	for start, f := range r.window {
		if start < blockStart {
			f.dropped = true
			if f.finished {
				wire.PutBuf(f.data)
				f.data = nil
				r.lockedRecycle(f)
			}
			delete(r.window, start)
			r.stats.Canceled++
			r.m.canceled.Inc()
		}
	}
}

// Seek implements io.Seeker. Seeking away from the run cancels the
// readahead window: prefetches issued for the abandoned run are
// aborted rather than left to fetch blocks the stream no longer
// wants. A seek whose target is still in hand — inside the cached
// block or a prefetched window entry — keeps the warm pipeline and
// only drops entries the stream has passed.
func (r *Reader) Seek(offset int64, whence int) (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, ErrReaderClosed
	}
	var abs int64
	switch whence {
	case io.SeekStart:
		abs = offset
	case io.SeekCurrent:
		abs = r.pos + offset
	case io.SeekEnd:
		abs = r.size + offset
	default:
		return 0, fmt.Errorf("stream: bad whence %d", whence)
	}
	if abs < 0 {
		return 0, fmt.Errorf("stream: negative seek position %d", abs)
	}
	if abs != r.pos {
		newBlock := abs / r.blockSize * r.blockSize
		switch {
		case r.cacheOff == newBlock:
			r.lockedPruneBehind(newBlock)
		case r.window[newBlock] != nil:
			r.lockedPruneBehind(newBlock)
			r.nextSeq = newBlock // the run continues on the prefetched block
		default:
			r.lockedCancelWindow()
		}
	}
	r.pos = abs
	return abs, nil
}

// Close implements io.Closer.
func (r *Reader) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lockedCancelWindow()
	if r.wcancel != nil {
		r.wcancel() // no fetch runs: this only lets the context go
		r.wctx, r.wcancel = nil, nil
	}
	if !r.closed {
		r.m.readersOpen.Add(-1)
	}
	r.closed = true
	wire.PutBuf(r.cache)
	r.cache, r.cacheOff = nil, -1
	return nil
}

// Size returns the pinned snapshot size.
func (r *Reader) Size() int64 { return r.size }

// ReadStats implements PipelinedReader.
func (r *Reader) ReadStats() ReadStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}
