package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"slices"
	"sync"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/mdtree"
	"blobseer/internal/stream"
	"blobseer/internal/vmanager"
)

// ErrNegativeOffset is returned by ReadAt for offsets below zero (the
// io.ReaderAt contract forbids silently clamping them).
var ErrNegativeOffset = errors.New("core: negative read offset")

// Blob is a handle on one BLOB. It pins the blob's static Meta once at
// open time, so writes, appends and snapshot queries through the
// handle never re-resolve it — the paper's access model is exactly
// handle-shaped (a client opens a BLOB, pins snapshot versions, and
// works against them while writers publish new versions concurrently).
// A Blob is safe for concurrent use.
type Blob struct {
	c    *Client
	meta blob.Meta
}

// op is a public entry point's profiler label, op=<name>, and the
// context that carries it, built once: labelling a call allocates
// nothing.
type op struct {
	name   string
	labels context.Context
}

func newOp(name string) *op {
	return &op{name, pprof.WithLabels(context.Background(), pprof.Labels("op", name))}
}

var (
	opOpen, opCreate  = newOp("open"), newOp("create")
	opWrite, opAppend = newOp("write"), newOp("append")
	opPin, opRead     = newOp("pin"), newOp("read")
)

// enter labels the calling goroutine's samples with o until the entry
// point's deferred pprof.SetGoroutineLabels(ctx). A caller labels its
// goroutine through its ctx (pprof.Do): those labels are kept, and o
// joins them, at the cost of one labelled context per call.
func enter(ctx context.Context, o *op) {
	labelled := false
	pprof.ForLabels(ctx, func(string, string) bool { labelled = true; return false })
	if labelled {
		pprof.SetGoroutineLabels(pprof.WithLabels(ctx, pprof.Labels("op", o.name)))
		return
	}
	pprof.SetGoroutineLabels(o.labels)
}

// OpenBlob returns a handle on an existing BLOB, resolving its static
// configuration once (cached across the client).
func (c *Client) OpenBlob(ctx context.Context, id blob.ID) (*Blob, error) {
	enter(ctx, opOpen)
	defer pprof.SetGoroutineLabels(ctx)
	m, err := c.Meta(ctx, id)
	if err != nil {
		return nil, err
	}
	return &Blob{c: c, meta: m}, nil
}

// CreateBlob allocates a new empty BLOB and returns its handle.
func (c *Client) CreateBlob(ctx context.Context, blockSize int64, replication int) (*Blob, error) {
	enter(ctx, opCreate)
	defer pprof.SetGoroutineLabels(ctx)
	m, err := c.Create(ctx, blockSize, replication)
	if err != nil {
		return nil, err
	}
	return &Blob{c: c, meta: m}, nil
}

// ID returns the blob's identity.
func (b *Blob) ID() blob.ID { return b.meta.ID }

// Meta returns the blob's static configuration, pinned at open time.
func (b *Blob) Meta() blob.Meta { return b.meta }

// Client returns the client the handle runs on.
func (b *Blob) Client() *Client { return b.c }

// Write stores data at off and returns the new snapshot version. Off
// must be block-aligned; a partial final block is only allowed when
// the write reaches (or extends) the end of the blob. The returned
// version may not be immediately readable: it publishes once all
// lower versions commit (use WaitPublished to observe it).
func (b *Blob) Write(ctx context.Context, off int64, data []byte) (blob.Version, error) {
	enter(ctx, opWrite)
	defer pprof.SetGoroutineLabels(ctx)
	a, err := b.c.doWrite(ctx, b.meta, blob.KindWrite, off, blob.NoVersion, data)
	return a.Version, err
}

// Append adds data, of any length, at the end of the blob; the offset
// is fixed by the version manager at assignment time (Section III-D),
// so concurrent appends neither overlap nor leave gaps.
func (b *Blob) Append(ctx context.Context, data []byte) (blob.Version, error) {
	a, err := b.append(ctx, data, 0)
	return a.Version, err
}

// maxAppendTries bounds how often one append is sent. Among N appenders
// onto unaligned ends one lands per round: most are refused about N times.
const maxAppendTries = 1024

// append is Append told where the caller last saw the blob's end (0 if
// unknown). Onto an unaligned end it pins the latest snapshot, its base,
// and sends the base's tail, from the block boundary below its end,
// then the data (vmanager.State.Assign). A refused append pins a newer
// base, waiting for one to publish if need be, and goes again. It is
// an entry point, for Append and an appending stream, and calls no
// other, so that op=append labels all of it.
func (b *Blob) append(ctx context.Context, data []byte, end int64) (vmanager.Assignment, error) {
	enter(ctx, opAppend)
	defer pprof.SetGoroutineLabels(ctx)
	var base *Snapshot
	for range maxAppendTries {
		if end%b.meta.BlockSize != 0 {
			s, err := b.pin(ctx, blob.NoVersion, false, 0)
			if err == nil && base != nil && s.version == base.version {
				s, err = b.pin(ctx, base.version+1, true, 0)
			}
			if err != nil {
				return vmanager.Assignment{}, err
			}
			base, end = s, s.size
		}
		payload, on := data, blob.NoVersion
		if rem := end % b.meta.BlockSize; rem != 0 {
			payload = make([]byte, rem+int64(len(data)))
			if _, err := base.readAt(ctx, payload[:rem], end-rem); err != nil && err != io.EOF {
				return vmanager.Assignment{}, err
			}
			copy(payload[rem:], data)
			on = base.version
		}
		a, err := b.c.doWrite(ctx, b.meta, blob.KindAppend, 0, on, payload)
		if !errors.Is(err, vmanager.ErrUnaligned) && !errors.Is(err, vmanager.ErrEndMoved) {
			return a, err
		}
		b.c.appendMoves.Inc()
		end = -1 // unaligned, as far as is known
	}
	return vmanager.Assignment{}, fmt.Errorf("core: append refused %d times: the blob's end kept moving", maxAppendTries)
}

// Latest pins the newest published snapshot. An unpublished blob (no
// writes committed yet) yields a zero-size Snapshot whose Version is
// blob.NoVersion — explicitly distinguishable from a zero-length
// clamp. The same call fetches the history Snapshot reads by.
func (b *Blob) Latest(ctx context.Context) (*Snapshot, error) {
	enter(ctx, opPin)
	defer pprof.SetGoroutineLabels(ctx)
	return b.pin(ctx, blob.NoVersion, false, 0)
}

// Snapshot pins published version v; v == blob.NoVersion pins the
// latest (see Latest). Every Snapshot is made by pin, so every way of
// pinning extends the client's block index of the blob, a page of
// history at a time. A version not yet published
// fails with ErrNotPublished, a garbage-collected one with
// vmanager.ErrPruned. The (version, size) pair is resolved once, with
// the history, by one version-manager call: no ReadAt or Locations call
// goes back to the version manager.
func (b *Blob) Snapshot(ctx context.Context, v blob.Version) (*Snapshot, error) {
	enter(ctx, opPin)
	defer pprof.SetGoroutineLabels(ctx)
	return b.pin(ctx, v, false, 0)
}

// WaitPublished blocks until version v is published (the snapshot
// notification mechanism of Section III-A5), then pins it, with the
// same call.
func (b *Blob) WaitPublished(ctx context.Context, v blob.Version, timeout time.Duration) (*Snapshot, error) {
	enter(ctx, opPin)
	defer pprof.SetGoroutineLabels(ctx)
	return b.pin(ctx, v, true, timeout)
}

// pin makes the Snapshot of v from one head, read after waiting up to
// timeout for v to publish if wait is set. The call asks from the
// version the client's block index reaches, and the history after it
// extends the index; a descriptor whose placement does not fit it fails
// the pin.
func (b *Blob) pin(ctx context.Context, v blob.Version, wait bool, timeout time.Duration) (*Snapshot, error) {
	id, owners := b.meta.ID, &b.c.state(b.meta.ID).owners
	page := func(_ vmanager.Head, descs []blob.WriteDesc) error {
		return owners.Extend(b.meta, descs)
	}
	var h vmanager.Head
	var err error
	if wait {
		h, err = b.c.vm.WaitPublished(ctx, id, owners.Through(), v, timeout, page)
	} else {
		h, err = b.c.vm.LatestSince(ctx, id, owners.Through(), v, page)
	}
	switch {
	case err != nil:
		return nil, err
	case v == blob.NoVersion:
		v = h.Published
	case v > h.Published:
		return nil, fmt.Errorf("%w: version %d, published %d", ErrNotPublished, v, h.Published)
	case v < h.Oldest:
		return nil, fmt.Errorf("%w: version %d (oldest kept: %d)", vmanager.ErrPruned, v, h.Oldest)
	}
	return &Snapshot{b: b, ctx: ctx, version: v, size: h.Size, owners: owners}, nil
}

// WriterOptions configures a streaming writer over a Blob.
type WriterOptions struct {
	// Append streams to the end of the blob, each block an Append:
	// appenders of any length run side by side. When false the stream
	// writes at fixed offsets starting from Off.
	Append bool
	// Off is the starting offset of a non-append stream (must be
	// block-aligned).
	Off int64
	// Depth is the write-behind window: up to this many full-block
	// puts (commits, for an append stream) proceed in the background
	// while Write keeps buffering. <= 0 keeps writes fully synchronous.
	Depth int
}

// NewWriter returns a write-behind streaming writer over the blob — the
// engine BSFS file writers run on, available to raw-blob applications
// directly. A create-mode stream publishes a version per run of
// stream.RunBlocks blocks, so readers see its bytes a run at a time,
// and all of them at Close; an append stream, one per block.
func (b *Blob) NewWriter(ctx context.Context, o WriterOptions) *stream.Writer {
	cfg := stream.WriterConfig{
		BlockSize: b.meta.BlockSize,
		Depth:     o.Depth,
		Metrics:   b.c.streams,
		Start:     func(context.Context) (int64, error) { return o.Off, nil },
	}
	if !o.Append {
		r := &run{b: b, off: o.Off}
		cfg.WriteAt, cfg.EndRun = r.store, r.end
		return stream.NewWriter(ctx, cfg)
	}
	// The stream starts at the blob's size; each block is told where
	// the one before left the end (one commit worker runs them).
	var end int64
	cfg.Start = func(ctx context.Context) (_ int64, err error) {
		_, end, err = b.c.Latest(ctx, b.meta.ID)
		return end, err
	}
	cfg.Append = func(ctx context.Context, data []byte) error {
		a, err := b.append(ctx, data, end)
		end = a.Size
		return err
	}
	return stream.NewWriter(ctx, cfg)
}

// run is a create-mode stream's run of blocks: its first block to go
// out takes a placement grant for stream.RunBlocks blocks, the others
// wait for it, and the run's end publishes them and starts the next.
type run struct {
	b    *Blob
	off  int64 // the file offset of the run's first block
	once sync.Once
	wr   *write // the grant and the blocks' refs
	err  error  // the grant's
}

func (r *run) store(ctx context.Context, off int64, data []byte) error {
	enter(ctx, opWrite)
	defer pprof.SetGoroutineLabels(ctx)
	bs := r.b.meta.BlockSize
	r.once.Do(func() {
		n := stream.RunBlocks
		if off%bs == 0 && int64(len(data)) < bs {
			n = 1 // a short block opening its run is the stream's last
		}
		r.wr = r.b.c.newWrite()
		r.err = r.wr.grant(ctx, r.b.meta, n)
	})
	if r.err != nil {
		return r.err
	}
	ref := &r.wr.refs[off/bs-r.off/bs]
	ref.Len = int64(len(data))
	return r.b.c.putBlock(ctx, ref.Providers, ref.Key, data)
}

// end publishes the run's blocks, through file offset to, as one
// version, or frees them when failed says one of them was not stored.
func (r *run) end(ctx context.Context, to int64, failed error) (err error) {
	enter(ctx, opWrite)
	defer pprof.SetGoroutineLabels(ctx)
	m, wr, off := r.b.meta, r.wr, r.off // a block of the run took the grant
	*r = run{b: r.b, off: to}
	defer wr.release()
	if failed != nil {
		r.b.c.gcBlocks(m.ID, wr.nonce, wr.addrs)
		return failed
	}
	ctx, sp := r.b.c.tracer.Start(ctx, "write")
	defer func() { sp.Finish(err) }()
	wr.refs = wr.refs[:blob.Blocks(to-off, m.BlockSize)]
	_, err = wr.publish(ctx, m, blob.KindWrite, off, blob.NoVersion, to-off)
	return err
}

// Snapshot is a pinned, immutable published version of a BLOB. The
// (version, size) pair is resolved at creation, so reads cost zero
// version-manager round-trips, however many the snapshot serves or
// writers publish meanwhile. The pin brought every write descriptor up
// to the version, each with its write's placement, so the client knows
// which version owns each block and which providers hold it: a read
// asks no metadata provider, and goes straight to the data. A Snapshot
// is safe for concurrent use: ReadAt may run from many goroutines.
type Snapshot struct {
	b       *Blob
	ctx     context.Context // pinned at creation; bare ReadAt runs under it
	version blob.Version
	size    int64
	owners  *mdtree.Owners // the client's block index of the blob, through version at least
}

var _ io.ReaderAt = (*Snapshot)(nil)

// Blob returns the handle the snapshot was pinned from.
func (s *Snapshot) Blob() *Blob { return s.b }

// Version returns the pinned snapshot version (blob.NoVersion for the
// zero-size snapshot of an unpublished blob).
func (s *Snapshot) Version() blob.Version { return s.version }

// Size returns the blob size at the pinned version.
func (s *Snapshot) Size() int64 { return s.size }

// ReadAt implements io.ReaderAt against the pinned snapshot: it fills
// p starting at byte off of the snapshot, resolving extents directly
// into p's subslices — no intermediate whole-range buffer is
// allocated. It returns len(p) with a nil error when the range lies
// strictly inside the snapshot, and io.EOF (with however many tail
// bytes remained) for any read that reaches the snapshot's end.
// Unwritten holes read as zeros. The snapshot's creation context
// governs cancellation; use ReadAtContext for per-call control.
func (s *Snapshot) ReadAt(p []byte, off int64) (int, error) {
	return s.ReadAtContext(s.ctx, p, off)
}

// ReadAtContext is ReadAt under an explicit context.
func (s *Snapshot) ReadAtContext(ctx context.Context, p []byte, off int64) (int, error) {
	enter(ctx, opRead)
	defer pprof.SetGoroutineLabels(ctx)
	return s.readAt(ctx, p, off)
}

// readAt is ReadAtContext without its label, for an append's read of
// its base's tail.
func (s *Snapshot) readAt(ctx context.Context, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, ErrNegativeOffset
	}
	if len(p) == 0 {
		if off >= s.size {
			return 0, io.EOF
		}
		return 0, nil
	}
	if off >= s.size {
		return 0, io.EOF
	}
	n := len(p)
	if off+int64(n) > s.size {
		n = int(s.size - off)
	}
	ctx, sp := s.b.c.tracer.Start(ctx, "readat")
	if err := s.readInto(ctx, off, p[:n]); err != nil {
		sp.Finish(err)
		return 0, err
	}
	sp.Finish(nil) // a clean tail read's io.EOF is success, not an error
	if off+int64(n) == s.size {
		return n, io.EOF // the read reached the tail exactly
	}
	return n, nil
}

// Locations returns the block locations covering [off, off+length) of
// the pinned snapshot — the layout primitive affinity schedulers ask
// (Section IV-C) — from the descriptors the pin brought: no version or
// metadata round trip. The slices are the caller's: a provider list is
// copied out of the descriptor, whose placement descriptors share.
func (s *Snapshot) Locations(ctx context.Context, off, length int64) ([]Location, error) {
	rd := s.b.c.newRead()
	defer rd.release()
	extents, err := s.owners.Resolve(s.b.meta, s.version, s.size, blob.Range{Off: off, Len: length}, &rd.extents)
	if err != nil {
		return nil, err
	}
	out := make([]Location, 0, len(extents))
	for _, e := range extents {
		loc := Location{Off: e.FileOff, Len: e.Len}
		if e.HasData {
			loc.Providers = slices.Clone(e.Block.Providers)
			loc.Hosts = s.b.c.hostsFor(ctx, e.Block.Providers)
		}
		out = append(out, loc)
	}
	return out, nil
}

// ReaderOptions configures a sequential streaming reader over a
// Snapshot.
type ReaderOptions struct {
	// Readahead is the asynchronous prefetch window, in blocks. <= 0
	// fetches nothing ahead: one block at a time, on demand.
	Readahead int
}

// NewReader returns a sequential io.ReadSeekCloser over the snapshot
// with whole-block caching and bounded asynchronous readahead — the
// engine BSFS file readers run on, available to raw-blob applications
// directly. Its block fetches are ReadAt calls, so a cold stream, like
// a read, sends nothing but its data requests.
func (s *Snapshot) NewReader(ctx context.Context, o ReaderOptions) *stream.Reader {
	return stream.NewReader(ctx, stream.ReaderConfig{
		Size:      s.size,
		BlockSize: s.b.meta.BlockSize,
		Readahead: o.Readahead,
		Metrics:   s.b.c.streams,
		Fetch: func(ctx context.Context, off int64, p []byte) (err error) {
			// One span per stream-engine block fetch, so demand reads
			// and readahead prefetches both show up in the trace.
			ctx, sp := s.b.c.tracer.Start(ctx, "stream.fetch")
			defer func() { sp.Finish(err) }()
			n, err := s.ReadAtContext(ctx, p, off)
			if err != nil && err != io.EOF {
				return err
			}
			if n != len(p) {
				return fmt.Errorf("core: snapshot fetch [%d,+%d): short read of %d bytes", off, len(p), n)
			}
			return nil
		},
	})
}
