// Package bsfs is the BlobSeer File System of Section IV: the layer
// that lets a Map/Reduce framework use BlobSeer as its storage backend
// through a conventional file-system API. It adds, on top of the core
// client: a hierarchical namespace (via the namespace manager), data
// prefetching and write-behind caching at block granularity (Section
// IV-B), and exposure of the physical data layout for affinity
// scheduling (Section IV-C).
//
// BSFS readers and writers are thin adapters: a file open resolves the
// path to a BLOB handle (core.Blob), pins a snapshot (core.Snapshot),
// and streams through the shared pipeline engine of internal/stream —
// the same engine raw-blob applications get from Snapshot.NewReader
// and Blob.NewWriter.
package bsfs

import (
	"context"
	"fmt"

	"blobseer/internal/blob"
	"blobseer/internal/core"
	"blobseer/internal/fs"
	"blobseer/internal/namespace"
	"blobseer/internal/stream"
	"blobseer/internal/vmanager"
)

// Config configures a BSFS client.
type Config struct {
	Core        *core.Client
	NS          *namespace.Client
	BlockSize   int64 // striping unit for new files (64 MB in the paper)
	Replication int
	// ReadaheadBlocks is the reader's asynchronous prefetch window: up
	// to this many blocks are fetched by background goroutines ahead of
	// a sequential stream. 0 (or negative) fetches nothing ahead — one
	// block at a time, on demand.
	ReadaheadBlocks int
	// WriteBehindDepth is the writer's write-behind window: up to this
	// many full-block commits proceed in the background while Write
	// keeps buffering. 0 (or negative) keeps writes fully synchronous —
	// each block commit completes before Write returns.
	WriteBehindDepth int
}

// FS implements fs.FileSystem over BlobSeer.
type FS struct {
	cfg Config
}

var (
	_ fs.FileSystem     = (*FS)(nil)
	_ fs.SnapshotReader = (*FS)(nil)
)

// ReadStats counts the reader-side pipeline activity (tests, tuning).
// It is the shared engine's stat block; the alias keeps the historical
// bsfs-level name working.
type ReadStats = stream.ReadStats

// PipelinedReader is implemented by BSFS readers; callers can
// type-assert an fs.Reader to observe the readahead pipeline.
type PipelinedReader = stream.PipelinedReader

// New returns a BSFS client.
func New(cfg Config) (*FS, error) {
	if cfg.Core == nil || cfg.NS == nil {
		return nil, fmt.Errorf("bsfs: core and namespace clients are required")
	}
	if cfg.BlockSize <= 0 {
		return nil, fmt.Errorf("bsfs: block size must be positive")
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 1
	}
	cfg.ReadaheadBlocks = max(cfg.ReadaheadBlocks, 0)
	cfg.WriteBehindDepth = max(cfg.WriteBehindDepth, 0)
	return &FS{cfg: cfg}, nil
}

// Name implements fs.FileSystem.
func (f *FS) Name() string { return "bsfs" }

// BlockSize implements fs.FileSystem.
func (f *FS) BlockSize() int64 { return f.cfg.BlockSize }

// OpenBlob resolves a file path to its BLOB handle — the escape hatch
// from the file-system API down to the versioned BLOB layer. Through
// the handle an application pins snapshots (Blob.Snapshot), reads with
// zero-copy random access (Snapshot.ReadAt) and writes concurrently at
// fixed offsets (Blob.Write) — capabilities the flat fs.FileSystem
// surface cannot express.
func (f *FS) OpenBlob(ctx context.Context, path string) (*core.Blob, error) {
	id, err := f.cfg.NS.GetFile(ctx, path)
	if err != nil {
		return nil, err
	}
	return f.cfg.Core.OpenBlob(ctx, id)
}

// Create implements fs.FileSystem.
func (f *FS) Create(ctx context.Context, path string, overwrite bool) (fs.Writer, error) {
	id, err := f.cfg.NS.CreateFile(ctx, path, f.cfg.BlockSize, f.cfg.Replication, overwrite)
	if err != nil {
		return nil, err
	}
	b, err := f.cfg.Core.OpenBlob(ctx, id)
	if err != nil {
		return nil, err
	}
	return b.NewWriter(ctx, core.WriterOptions{Depth: f.cfg.WriteBehindDepth}), nil
}

// Append implements fs.FileSystem. Any number of appenders, of any
// lengths, proceed side by side through BlobSeer's append (the paper's
// Figure 5 workload): the version manager fixes where each lands.
func (f *FS) Append(ctx context.Context, path string) (fs.Writer, error) {
	b, err := f.OpenBlob(ctx, path)
	if err != nil {
		return nil, err
	}
	return b.NewWriter(ctx, core.WriterOptions{Append: true, Depth: f.cfg.WriteBehindDepth}), nil
}

// Open implements fs.FileSystem. The snapshot version is pinned at open
// time: concurrent writers never disturb this reader.
func (f *FS) Open(ctx context.Context, path string) (fs.Reader, error) {
	b, err := f.OpenBlob(ctx, path)
	if err != nil {
		return nil, err
	}
	s, err := b.Latest(ctx)
	if err != nil {
		return nil, err
	}
	return f.newReader(ctx, s), nil
}

// OpenVersion opens a file pinned to an explicit snapshot version —
// the versioning capability HDFS lacks entirely (Section VI-A). It
// implements fs.SnapshotReader. Version numbers are external input
// here: 0 (blob.NoVersion, which Blob.Snapshot would resolve to "the
// latest") is rejected rather than silently un-pinned.
func (f *FS) OpenVersion(ctx context.Context, path string, version uint64) (fs.Reader, error) {
	if blob.Version(version) == blob.NoVersion {
		return nil, fmt.Errorf("bsfs: %w: 0 (published versions start at 1)", vmanager.ErrBadVersion)
	}
	b, err := f.OpenBlob(ctx, path)
	if err != nil {
		return nil, err
	}
	s, err := b.Snapshot(ctx, blob.Version(version))
	if err != nil {
		return nil, err
	}
	return f.newReader(ctx, s), nil
}

// newReader streams a pinned snapshot through the shared engine with
// this FS's pipeline tuning.
func (f *FS) newReader(ctx context.Context, s *core.Snapshot) *stream.Reader {
	return s.NewReader(ctx, core.ReaderOptions{Readahead: f.cfg.ReadaheadBlocks})
}

// Stat implements fs.FileSystem.
func (f *FS) Stat(ctx context.Context, path string) (fs.FileStatus, error) {
	e, err := f.cfg.NS.StatEntry(ctx, path)
	if err != nil {
		return fs.FileStatus{}, err
	}
	st := fs.FileStatus{Path: fs.Clean(path), IsDir: e.IsDir}
	if !e.IsDir {
		_, size, err := f.cfg.Core.Latest(ctx, e.Blob)
		if err != nil {
			return fs.FileStatus{}, err
		}
		st.Size = size
	}
	return st, nil
}

// List implements fs.FileSystem.
func (f *FS) List(ctx context.Context, path string) ([]fs.FileStatus, error) {
	entries, err := f.cfg.NS.List(ctx, path)
	if err != nil {
		return nil, err
	}
	dir := fs.Clean(path)
	if dir == "/" {
		dir = ""
	}
	out := make([]fs.FileStatus, 0, len(entries))
	for _, e := range entries {
		st := fs.FileStatus{Path: dir + "/" + e.Name, IsDir: e.IsDir}
		if !e.IsDir {
			_, size, err := f.cfg.Core.Latest(ctx, e.Blob)
			if err != nil {
				return nil, err
			}
			st.Size = size
		}
		out = append(out, st)
	}
	return out, nil
}

// Mkdirs implements fs.FileSystem.
func (f *FS) Mkdirs(ctx context.Context, path string) error {
	return f.cfg.NS.Mkdirs(ctx, path)
}

// Delete implements fs.FileSystem.
func (f *FS) Delete(ctx context.Context, path string, recursive bool) error {
	_, err := f.cfg.NS.Delete(ctx, path, recursive)
	return err
}

// Rename implements fs.FileSystem.
func (f *FS) Rename(ctx context.Context, src, dst string) error {
	return f.cfg.NS.Rename(ctx, src, dst)
}

// Locations implements fs.FileSystem by mapping Hadoop's
// getFileBlockLocations onto BlobSeer's layout primitive.
func (f *FS) Locations(ctx context.Context, path string, off, length int64) ([]fs.BlockLocation, error) {
	b, err := f.OpenBlob(ctx, path)
	if err != nil {
		return nil, err
	}
	s, err := b.Latest(ctx)
	if err != nil {
		return nil, err
	}
	locs, err := s.Locations(ctx, off, length)
	if err != nil {
		return nil, err
	}
	out := make([]fs.BlockLocation, len(locs))
	for i, l := range locs {
		out[i] = fs.BlockLocation{Off: l.Off, Len: l.Len, Hosts: l.Hosts}
	}
	return out, nil
}

// Versions returns the published version count of a file.
func (f *FS) Versions(ctx context.Context, path string) (blob.Version, error) {
	id, err := f.cfg.NS.GetFile(ctx, path)
	if err != nil {
		return 0, err
	}
	v, _, err := f.cfg.Core.Latest(ctx, id)
	return v, err
}

// Prune discards every snapshot of path below version keep and
// reclaims the storage kept versions cannot reach (Section III-A1's
// version garbaging). Open readers pinned to kept versions are
// unaffected; readers below keep lose their snapshot.
func (f *FS) Prune(ctx context.Context, path string, keep blob.Version) (core.GCStats, error) {
	id, err := f.cfg.NS.GetFile(ctx, path)
	if err != nil {
		return core.GCStats{}, err
	}
	return f.cfg.Core.GC(ctx, id, keep)
}
