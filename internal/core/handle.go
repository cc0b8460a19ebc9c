package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/stream"
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
	return b.c.doWrite(ctx, b.meta.ID, blob.KindWrite, off, data)
}

// Append adds data at the end of the blob; the offset is fixed by the
// version manager at assignment time (Section III-D).
func (b *Blob) Append(ctx context.Context, data []byte) (blob.Version, error) {
	return b.c.doWrite(ctx, b.meta.ID, blob.KindAppend, 0, data)
}

// Latest pins the newest published snapshot. An unpublished blob (no
// writes committed yet) yields a zero-size Snapshot whose Version is
// blob.NoVersion — explicitly distinguishable from a zero-length
// clamp.
func (b *Blob) Latest(ctx context.Context) (*Snapshot, error) {
	v, size, err := b.c.vm.Latest(ctx, b.meta.ID)
	if err != nil {
		return nil, err
	}
	return &Snapshot{b: b, ctx: ctx, version: v, size: size}, nil
}

// Snapshot pins published version v. v == blob.NoVersion pins the
// latest published snapshot (see Latest). Naming a version newer than
// the latest published one fails with ErrNotPublished. The (version,
// size) pair is resolved once: every subsequent ReadAt or Locations
// call on the returned Snapshot skips the metadata round-trips
// entirely.
func (b *Blob) Snapshot(ctx context.Context, v blob.Version) (*Snapshot, error) {
	if v == blob.NoVersion {
		return b.Latest(ctx)
	}
	size, err := b.c.versionSize(ctx, b.meta.ID, v)
	if err != nil {
		return nil, err
	}
	return &Snapshot{b: b, ctx: ctx, version: v, size: size}, nil
}

// WaitPublished blocks until version v is published (the snapshot
// notification mechanism of Section III-A5), then pins it.
func (b *Blob) WaitPublished(ctx context.Context, v blob.Version, timeout time.Duration) (*Snapshot, error) {
	pub, size, err := b.c.vm.WaitPublished(ctx, b.meta.ID, v, timeout)
	if err != nil {
		return nil, err
	}
	if pub == v {
		return &Snapshot{b: b, ctx: ctx, version: v, size: size}, nil
	}
	// Publication moved past v while we waited: pin v itself.
	return b.Snapshot(ctx, v)
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
		Collector: b.c.coll,
		Start: func(ctx context.Context) (stream.StartState, error) {
			if !o.Append {
				return stream.StartState{OffsetMode: true, Off: o.Off}, nil
			}
			s, err := b.Latest(ctx)
			if err != nil {
				return stream.StartState{}, err
			}
			rem := s.Size() % b.meta.BlockSize
			if rem == 0 {
				return stream.StartState{}, nil // native append path
			}
			// An unaligned tail cannot go through native appends (the
			// version manager rejects appends onto unaligned EOFs), so
			// merge it once and continue with offset-tracked writes.
			tailStart := s.Size() - rem
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
// (version, size) pair is resolved at creation; reads against the
// snapshot go straight to metadata-tree resolution (served from the
// client's immutable-node cache when warm) and the data providers —
// zero version-manager round-trips, no matter how many reads the
// snapshot serves or how many new versions writers publish meanwhile.
// A Snapshot is safe for concurrent use: ReadAt may run from many
// goroutines at once.
type Snapshot struct {
	b       *Blob
	ctx     context.Context // pinned at creation; bare ReadAt runs under it
	version blob.Version
	size    int64
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
	if err := s.b.c.readInto(ctx, s.b.meta, s.version, s.size, off, p[:n]); err != nil {
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
// (Section IV-C) — without re-resolving the version.
func (s *Snapshot) Locations(ctx context.Context, off, length int64) ([]Location, error) {
	if s.version == blob.NoVersion {
		return nil, nil
	}
	return s.b.c.locationsAt(ctx, s.b.meta, s.version, s.size, off, length)
}

// ReaderOptions configures a sequential streaming reader over a
// Snapshot.
type ReaderOptions struct {
	// Readahead is the asynchronous prefetch window, in blocks. <= 0
	// keeps reads fully synchronous.
	Readahead int
	// NoCache disables block caching and prefetch entirely (ablation:
	// reads hit BlobSeer at request granularity).
	NoCache bool
}

// NewReader returns a sequential io.ReadSeekCloser over the snapshot
// with whole-block caching and bounded asynchronous readahead — the
// engine BSFS file readers run on, available to raw-blob applications
// directly.
func (s *Snapshot) NewReader(ctx context.Context, o ReaderOptions) *stream.Reader {
	return stream.NewReader(ctx, stream.ReaderConfig{
		Size:      s.size,
		BlockSize: s.b.meta.BlockSize,
		Readahead: o.Readahead,
		NoCache:   o.NoCache,
		Collector: s.b.c.coll,
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
