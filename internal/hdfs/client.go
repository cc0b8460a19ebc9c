package hdfs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync/atomic"

	"blobseer/internal/blob"
	"blobseer/internal/fs"
	"blobseer/internal/provider"
	"blobseer/internal/rpc"
	"blobseer/internal/stream"
)

// datanodeKey names a chunk in a datanode's store. Datanodes reuse the
// provider daemon; HDFS block IDs map into its key space with a zero
// blob and the block ID as nonce.
func datanodeKey(id BlockID) blob.BlockKey {
	return blob.BlockKey{Blob: 0, Nonce: uint64(id), Seq: 0}
}

// Config configures an HDFS client.
type Config struct {
	Pool        *rpc.Pool
	NNAddr      string // namenode endpoint
	BlockSize   int64
	Replication int
	Host        string // client host (local-first placement)
}

// FS implements fs.FileSystem over the HDFS-like baseline.
type FS struct {
	cfg Config
	nn  *NNClient
	dn  *provider.Client
}

var _ fs.FileSystem = (*FS)(nil)

// New returns an HDFS client.
func New(cfg Config) (*FS, error) {
	if cfg.Pool == nil || cfg.NNAddr == "" {
		return nil, fmt.Errorf("hdfs: pool and namenode address are required")
	}
	if cfg.BlockSize <= 0 {
		return nil, fmt.Errorf("hdfs: block size must be positive")
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 1
	}
	return &FS{
		cfg: cfg,
		nn:  NewNNClient(cfg.Pool, cfg.NNAddr),
		dn:  provider.NewClient(cfg.Pool),
	}, nil
}

// Name implements fs.FileSystem.
func (f *FS) Name() string { return "hdfs" }

// BlockSize implements fs.FileSystem.
func (f *FS) BlockSize() int64 { return f.cfg.BlockSize }

func newLease() string {
	var b [8]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// Create implements fs.FileSystem. The writer is the shared streaming
// engine in its native-append mode, which is HDFS's DataStreamer: one
// ordered commit worker (the namenode accepts CompleteBlock only for
// the file's last block), block n+1 buffering while block n drains.
// Each block costs the namenode two round trips — AddBlock for the
// pipeline's targets, CompleteBlock to make the bytes visible — where
// BSFS's allocation, version assignment and commit are spread over
// three services; that centralisation is the point of the baseline.
func (f *FS) Create(ctx context.Context, path string, overwrite bool) (fs.Writer, error) {
	lease := newLease()
	id, err := f.nn.Create(ctx, path, overwrite, lease)
	if err != nil {
		return nil, err
	}
	return &writer{
		seal: func() error { return f.nn.CompleteFile(ctx, id, lease) },
		Writer: stream.NewWriter(ctx, stream.WriterConfig{
			BlockSize: f.cfg.BlockSize,
			Depth:     stream.DefaultWriteBehind,
			Append: func(ctx context.Context, data []byte) error {
				bid, targets, err := f.nn.AddBlock(ctx, id, lease, f.cfg.Host, f.cfg.Replication)
				if err != nil {
					return err
				}
				// The replication pipeline: the client sends the block to the
				// first datanode only, each datanode stores and forwards.
				if err := f.dn.PutChained(ctx, targets, datanodeKey(bid), data, 0); err != nil {
					return fmt.Errorf("hdfs: pipeline %v: %w", targets, err)
				}
				return f.nn.CompleteBlock(ctx, id, lease, bid, int64(len(data)))
			},
		}),
	}, nil
}

// Append implements fs.FileSystem: HDFS 0.20 has no append — the gap
// BlobSeer's Figure 5 experiment highlights.
func (f *FS) Append(ctx context.Context, path string) (fs.Writer, error) {
	return nil, fs.ErrNoAppend
}

// Open implements fs.FileSystem: the block list is fetched once from
// the namenode, data reads go straight to the datanodes through the
// shared engine's whole-block cache and readahead window. The file is
// immutable once closed, so the list is the reader's snapshot.
func (f *FS) Open(ctx context.Context, path string) (fs.Reader, error) {
	blocks, size, err := f.nn.GetBlockLocations(ctx, path, 0, int64(1)<<62)
	if err != nil {
		return nil, err
	}
	return stream.NewReader(ctx, stream.ReaderConfig{
		Size:      size,
		BlockSize: f.cfg.BlockSize,
		Readahead: stream.DefaultReadahead,
		Fetch: func(ctx context.Context, off int64, p []byte) error {
			// Every block but the last is full, so the offset names its block.
			i := off / f.cfg.BlockSize
			if i >= int64(len(blocks)) || off < blocks[i].Off || off+int64(len(p)) > blocks[i].Off+blocks[i].Len {
				return fmt.Errorf("hdfs: no block covers [%d,+%d)", off, len(p))
			}
			return f.fetch(ctx, &blocks[i], off-blocks[i].Off, p)
		},
	}), nil
}

// fetch fills p from offset off of one block, straight off the
// connection, trying the replicas in the namenode's order.
func (f *FS) fetch(ctx context.Context, lb *LocatedBlock, off int64, p []byte) (err error) {
	for _, addr := range lb.Locations {
		var n int
		n, err = f.dn.GetInto(ctx, addr, datanodeKey(lb.Block), off, p)
		if err == nil && n < len(p) {
			err = fmt.Errorf("short read of %d bytes from %s", n, addr)
		}
		if err == nil {
			return nil
		}
	}
	return fmt.Errorf("hdfs: all replicas failed for block %d: %w", lb.Block, err)
}

// Stat implements fs.FileSystem.
func (f *FS) Stat(ctx context.Context, path string) (fs.FileStatus, error) {
	return f.nn.Stat(ctx, path)
}

// List implements fs.FileSystem.
func (f *FS) List(ctx context.Context, path string) ([]fs.FileStatus, error) {
	return f.nn.List(ctx, path)
}

// Mkdirs implements fs.FileSystem.
func (f *FS) Mkdirs(ctx context.Context, path string) error { return f.nn.Mkdirs(ctx, path) }

// Delete implements fs.FileSystem.
func (f *FS) Delete(ctx context.Context, path string, recursive bool) error {
	return f.nn.Delete(ctx, path, recursive)
}

// Rename implements fs.FileSystem.
func (f *FS) Rename(ctx context.Context, src, dst string) error {
	return f.nn.Rename(ctx, src, dst)
}

// Locations implements fs.FileSystem.
func (f *FS) Locations(ctx context.Context, path string, off, length int64) ([]fs.BlockLocation, error) {
	blocks, _, err := f.nn.GetBlockLocations(ctx, path, off, length)
	if err != nil {
		return nil, err
	}
	out := make([]fs.BlockLocation, len(blocks))
	for i, b := range blocks {
		out[i] = fs.BlockLocation{Off: b.Off, Len: b.Len, Hosts: b.Hosts}
	}
	return out, nil
}

// writer is the stream engine plus the one thing HDFS adds at the end
// of a file: sealing it on the namenode.
type writer struct {
	*stream.Writer
	seal   func() error // CompleteFile, under the writer's context and lease
	sealed atomic.Bool
}

// Close drains the pipeline, commits the buffered tail and seals the
// file (immutable from here on). Only a Close that did all three
// latches: a failed one keeps the tail and may be retried, and never
// reports a lost tail or an unsealed file as durable; a background
// commit error, once latched by the engine, is what every Close reports.
func (w *writer) Close() error {
	if err := w.Writer.Close(); err != nil {
		return err
	}
	if w.sealed.Load() {
		return nil
	}
	if err := w.seal(); err != nil {
		return err
	}
	w.sealed.Store(true)
	return nil
}
