package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
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

// OpenBlob returns a handle on an existing BLOB, resolving its static
// configuration once (cached across the client).
func (c *Client) OpenBlob(ctx context.Context, id blob.ID) (*Blob, error) {
	m, err := c.Meta(ctx, id)
	if err != nil {
		return nil, err
	}
	return &Blob{c: c, meta: m}, nil
}

// CreateBlob allocates a new empty BLOB and returns its handle.
func (c *Client) CreateBlob(ctx context.Context, blockSize int64, replication int) (*Blob, error) {
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
	return b.c.doWrite(ctx, b.meta, blob.KindWrite, off, data)
}

// Append adds data at the end of the blob; the offset is fixed by the
// version manager at assignment time (Section III-D).
func (b *Blob) Append(ctx context.Context, data []byte) (blob.Version, error) {
	return b.c.doWrite(ctx, b.meta, blob.KindAppend, 0, data)
}

// Latest pins the newest published snapshot. An unpublished blob (no
// writes committed yet) yields a zero-size Snapshot whose Version is
// blob.NoVersion — explicitly distinguishable from a zero-length
// clamp. The same call fetches the history Snapshot reads by.
func (b *Blob) Latest(ctx context.Context) (*Snapshot, error) {
	return b.Snapshot(ctx, blob.NoVersion)
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
	return b.pin(ctx, v, false, 0)
}

// WaitPublished blocks until version v is published (the snapshot
// notification mechanism of Section III-A5), then pins it, with the
// same call.
func (b *Blob) WaitPublished(ctx context.Context, v blob.Version, timeout time.Duration) (*Snapshot, error) {
	return b.pin(ctx, v, true, timeout)
}

// pin makes the Snapshot of v from one head, read after waiting up to
// timeout for v to publish if wait is set. The call asks from the
// version the client's block index reaches, and the history after it
// extends the index.
func (b *Blob) pin(ctx context.Context, v blob.Version, wait bool, timeout time.Duration) (*Snapshot, error) {
	id, owners := b.meta.ID, &b.c.state(b.meta.ID).owners
	page := func(_ vmanager.Head, descs []blob.WriteDesc) error {
		owners.Extend(b.meta.BlockSize, descs)
		return nil
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
	// Append streams to the end of the blob. An unaligned existing tail
	// is merged with one read-modify-write on first flush — only safe
	// for a single appender, exactly the semantics Hadoop applications
	// expect; block-aligned appends keep full append/append
	// concurrency. When false the stream writes at fixed offsets
	// starting from Off.
	Append bool
	// Off is the starting offset of a non-append stream (must be
	// block-aligned).
	Off int64
	// Depth is the write-behind window: up to this many full-block
	// commits proceed in the background while Write keeps buffering.
	// <= 0 keeps writes fully synchronous.
	Depth int
}

// NewWriter returns a write-behind streaming writer committing to the
// blob one block-sized snapshot at a time — the engine BSFS file
// writers run on, available to raw-blob applications directly.
func (b *Blob) NewWriter(ctx context.Context, o WriterOptions) *stream.Writer {
	return stream.NewWriter(ctx, stream.WriterConfig{
		BlockSize: b.meta.BlockSize,
		Depth:     o.Depth,
		Metrics:   b.c.streams,
		Start: func(ctx context.Context) (stream.StartState, error) {
			if !o.Append {
				return stream.StartState{OffsetMode: true, Off: o.Off}, nil
			}
			// The size decides; the history a pin would bring is needed
			// only to read an unaligned tail.
			v, size, err := b.c.Latest(ctx, b.meta.ID)
			if err != nil {
				return stream.StartState{}, err
			}
			rem := size % b.meta.BlockSize
			if rem == 0 {
				return stream.StartState{}, nil // native append path
			}
			// An unaligned tail cannot go through native appends (the
			// version manager rejects appends onto unaligned EOFs), so
			// merge it once and continue with offset-tracked writes.
			s, err := b.Snapshot(ctx, v)
			if err != nil {
				return stream.StartState{}, err
			}
			tailStart := size - rem
			tail := make([]byte, rem)
			if _, err := s.ReadAtContext(ctx, tail, tailStart); err != nil && err != io.EOF {
				return stream.StartState{}, err
			}
			return stream.StartState{OffsetMode: true, Off: tailStart, Prefix: tail}, nil
		},
		WriteAt: func(ctx context.Context, off int64, data []byte) error {
			_, err := b.Write(ctx, off, data)
			return err
		},
		Append: func(ctx context.Context, data []byte) error {
			_, err := b.Append(ctx, data)
			return err
		},
	})
}

// Snapshot is a pinned, immutable published version of a BLOB. The
// (version, size) pair is resolved at creation, so reads cost zero
// version-manager round-trips, however many the snapshot serves or
// writers publish meanwhile. The pin brought every write descriptor up
// to the version, so the client knows which version owns each block
// and a read fetches exactly its leaves: one batched metadata round
// trip, none when the immutable-node cache has them. A Snapshot is safe
// for concurrent use: ReadAt may run from many goroutines.
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
// (Section IV-C) — without re-resolving the version. The slices are the
// caller's: a provider list is copied out of the node cache, whose
// leaves share theirs.
func (s *Snapshot) Locations(ctx context.Context, off, length int64) ([]Location, error) {
	rd := s.b.c.newRead(ctx)
	defer rd.release()
	extents, err := s.owners.Resolve(ctx, s.b.c.meta, s.b.meta, s.version, s.size, blob.Range{Off: off, Len: length}, &rd.leaves)
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
// directly. Through a node cache it also reads the metadata ahead: its
// block fetches name their leaves a window at a time, a window growing
// with the run the reader streams up to leafBlocks blocks, so a cold
// stream pays one metadata round trip per window, not one per block
// (leafWindow).
func (s *Snapshot) NewReader(ctx context.Context, o ReaderOptions) *stream.Reader {
	lw := s.newLeafWindow(o.Readahead)
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
			lw.cover(ctx, off)
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

// leafBlocks is the most blocks whose leaves a streamed reader fetches
// with one batch. A cold 128-block partition then makes 6 metadata
// round trips instead of 128 (windows of 4, 8, 20 and three of 32); a
// wider window saves little more, and each client keeps a node-cache
// flight as wide as its widest batch.
const leafBlocks = 32

// leafWindow is a streamed reader's metadata readahead: the run of
// blocks [run, end) of its snapshot whose leaves it has fetched into
// the client's node cache, a window at a time, so that its block
// fetches there resolve from memory. The first fetch outside the run
// fetches the next window while the reader's other fetches wait on mu,
// so they open no flights of their own; one whose context ends (a Seek
// or Close dropped it) stops waiting at once. A window is as wide as
// the run the reader has shown asks: the first of a run covers the block
// fetched and its readahead, and each window that goes on from the
// last is twice the run so far, up to most, and ends by the next
// multiple of most blocks. A reader that reads a block or two fetches
// few more leaves than it reads; one that streams on fetches its
// leaves leafBlocks at a time, and one that streams a partition of
// whole windows none past its end.
type leafWindow struct {
	s           *Snapshot
	nc          *mdtree.NodeCache
	bs          int64
	first, most int64 // a window's bytes: the first of a run, and at most

	mu       chan struct{} // a one-slot lock: it is held across a round trip
	run, end int64
}

// newLeafWindow returns a window for a reader of s whose stream reads
// readahead blocks ahead, or nil where none applies, which reads as
// before: a client without a node cache, or a cache whose shards hold
// fewer than two leaves. A window is at most a shard's capacity, so a
// prefetch never evicts its own leaves.
func (s *Snapshot) newLeafWindow(readahead int) *leafWindow {
	nc, ok := s.b.c.meta.(*mdtree.NodeCache)
	if !ok {
		return nil
	}
	most := min(leafBlocks, nc.PrefetchRoom())
	if most < 2 {
		return nil
	}
	bs := s.b.meta.BlockSize
	// A fetch after a seek comes alone; the next, and a stream's first,
	// comes with its readahead: readahead+2 blocks in all.
	first := min(max(readahead, 0)+2, most)
	return &leafWindow{s: s, nc: nc, bs: bs, first: int64(first) * bs, most: int64(most) * bs, mu: make(chan struct{}, 1)}
}

// cover makes sure the leaves of the window holding off are cached.
// Outside the run it fetches, with one batch, those the cache lacks of
// the next window: the one that goes on from the run if off lies
// within it, else the first of a new run, from off's block. A new run
// starts at block 0 if off lies within its first window's width of it:
// a stream's first fetch comes with its readahead, and whichever of
// them takes mu first must open a window that holds them all. A run
// is checked whole, not only its last window, because readahead
// fetches take mu out of order. A failed or canceled prefetch leaves
// the run as it was; the read then fetches its own leaf, as without a
// window. A fetch whose context has ended (a Seek or Close dropped it)
// fetches nothing ahead, and stops waiting for the window if it was.
func (lw *leafWindow) cover(ctx context.Context, off int64) {
	if lw == nil || ctx.Err() != nil {
		return
	}
	select {
	case lw.mu <- struct{}{}:
	case <-ctx.Done():
		return
	}
	defer func() { <-lw.mu }()
	if ctx.Err() != nil || off >= lw.run && off < lw.end {
		return
	}
	start := off / lw.bs * lw.bs
	run, span := start, lw.first
	next := min(lw.most, 2*(lw.end-lw.run), (lw.end/lw.most+1)*lw.most-lw.end)
	switch {
	case lw.end > lw.run && off >= lw.end && off < lw.end+next: // the run goes on
		run, start, span = lw.run, lw.end, next
	case start < lw.first:
		run, start = 0, 0
	}
	s := lw.s
	end := min(s.size, start+span)
	var buf [leafBlocks]mdtree.NodeID // on the stack
	ids, err := s.owners.Leaves(buf[:0], s.b.meta, s.version, blob.Range{Off: start, Len: end - start})
	if err == nil {
		err = lw.nc.Prefetch(ctx, ids)
	}
	if err == nil {
		lw.run, lw.end = run, end
	}
}
