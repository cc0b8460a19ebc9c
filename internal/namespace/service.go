package namespace

import (
	"context"

	"blobseer/internal/blob"
	"blobseer/internal/obs"
	"blobseer/internal/rpc"
	"blobseer/internal/wire"
)

// Service is the RPC shell around State.
type Service struct {
	state *State
	reg   *obs.Registry
}

// NewService wraps state.
func NewService(state *State) *Service {
	return &Service{state: state, reg: obs.NewRegistry()}
}

// State exposes the core (tests).
func (s *Service) State() *State { return s.state }

// Metrics exposes the namespace registry (per-op counts, error
// counts, latency histograms) for HTTP export.
func (s *Service) Metrics() *obs.Registry { return s.reg }

// Mux returns the RPC dispatch table, metered on the service's registry.
// A create calls the version manager and keeps its handler goroutine;
// with a log, whose records hold the tree's lock across an fsync, so
// does every method. Without one the rest run inline (rpc's rule).
func (s *Service) Mux() *rpc.Mux {
	m := rpc.NewMeteredMux("namespace", s.reg)
	handle := m.HandleInline
	if s.state.log != nil {
		handle = m.HandleFrame
	}
	m.HandleFrame(mCreateFile, "create_file", s.handleCreateFile)
	handle(mGetFile, "get_file", s.handleGetFile)
	handle(mMkdirs, "mkdirs", s.handleMkdirs)
	handle(mDelete, "delete", s.handleDelete)
	handle(mRename, "rename", s.handleRename)
	handle(mList, "list", s.handleList)
	handle(mStatEntry, "stat", s.handleStatEntry)
	return m
}

func (s *Service) handleCreateFile(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	path := r.String()
	blockSize := r.I64()
	replication := int(r.U32())
	overwrite := r.Bool()
	if err := r.Err(); err != nil {
		return nil, err
	}
	id, err := s.state.CreateFile(ctx, path, blockSize, replication, overwrite)
	if err != nil {
		return nil, err
	}
	b := rpc.NewFrame(8)
	b.U64(uint64(id))
	return b, nil
}

func (s *Service) handleGetFile(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	path := r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	id, err := s.state.GetFile(path)
	if err != nil {
		return nil, err
	}
	b := rpc.NewFrame(8)
	b.U64(uint64(id))
	return b, nil
}

func (s *Service) handleMkdirs(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	path := r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return nil, s.state.Mkdirs(path)
}

func (s *Service) handleDelete(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	path := r.String()
	recursive := r.Bool()
	if err := r.Err(); err != nil {
		return nil, err
	}
	orphans, err := s.state.Delete(path, recursive)
	if err != nil {
		return nil, err
	}
	b := rpc.NewFrame(4 + 8*len(orphans))
	b.U32(uint32(len(orphans)))
	for _, id := range orphans {
		b.U64(uint64(id))
	}
	return b, nil
}

func (s *Service) handleRename(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	src := r.String()
	dst := r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return nil, s.state.Rename(src, dst)
}

func (s *Service) handleList(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	path := r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	entries, err := s.state.List(path)
	if err != nil {
		return nil, err
	}
	b := rpc.NewFrame(64)
	b.U32(uint32(len(entries)))
	for _, e := range entries {
		b.String(e.Name)
		b.Bool(e.IsDir)
		b.U64(uint64(e.Blob))
	}
	return b, nil
}

func (s *Service) handleStatEntry(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	path := r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	e, err := s.state.StatEntry(path)
	if err != nil {
		return nil, err
	}
	b := rpc.NewFrame(32)
	b.String(e.Name)
	b.Bool(e.IsDir)
	b.U64(uint64(e.Blob))
	return b, nil
}

// Client is the namespace-manager RPC client.
type Client struct {
	pool  *rpc.Pool
	addr  string
	retry rpc.Backoff
}

// NewClient returns a client for the namespace manager at addr.
// Transport failures are retried with rpc.DefaultBackoff; namespace
// mutations are idempotent across a manager restart only in the
// success direction (a retried CreateFile whose first ack was lost
// reports ErrExist), which callers already have to handle.
func NewClient(pool *rpc.Pool, addr string) *Client {
	return &Client{pool: pool, addr: addr, retry: rpc.DefaultBackoff}
}

// SetRetry overrides the client's retry schedule.
func (c *Client) SetRetry(b rpc.Backoff) { c.retry = b }

// call issues one RPC about path (see rpc.Pool.Call for enc and dec);
// enc, when non-nil, appends what follows the path.
func (c *Client) call(ctx context.Context, m uint16, path string, enc func(*wire.Buffer), dec func([]byte) error) error {
	return c.pool.Call(ctx, c.retry, c.addr, m, 64+len(path), func(b *wire.Buffer) {
		b.String(path)
		if enc != nil {
			enc(b)
		}
	}, dec)
}

// blobReply decodes a response that is one blob ID.
func blobReply(id *blob.ID) func([]byte) error {
	return func(p []byte) error {
		r := wire.NewReader(p)
		*id = blob.ID(r.U64())
		return r.Err()
	}
}

// CreateFile registers a new file backed by a fresh BLOB.
func (c *Client) CreateFile(ctx context.Context, path string, blockSize int64, replication int, overwrite bool) (id blob.ID, err error) {
	err = c.call(ctx, mCreateFile, path, func(b *wire.Buffer) {
		b.I64(blockSize)
		b.U32(uint32(replication))
		b.Bool(overwrite)
	}, blobReply(&id))
	return id, err
}

// GetFile resolves a path to its BLOB.
func (c *Client) GetFile(ctx context.Context, path string) (id blob.ID, err error) {
	err = c.call(ctx, mGetFile, path, nil, blobReply(&id))
	return id, err
}

// Mkdirs creates a directory chain.
func (c *Client) Mkdirs(ctx context.Context, path string) error {
	return c.call(ctx, mMkdirs, path, nil, nil)
}

// Delete unlinks a path, returning orphaned blob IDs.
func (c *Client) Delete(ctx context.Context, path string, recursive bool) (out []blob.ID, err error) {
	err = c.call(ctx, mDelete, path, func(b *wire.Buffer) { b.Bool(recursive) }, func(p []byte) error {
		r := wire.NewReader(p)
		n := r.U32()
		out = make([]blob.ID, 0, min(n, uint32(r.Remaining()/8)))
		for i := uint32(0); i < n && r.Err() == nil; i++ {
			out = append(out, blob.ID(r.U64()))
		}
		return r.Err()
	})
	return out, err
}

// Rename moves a path.
func (c *Client) Rename(ctx context.Context, src, dst string) error {
	return c.call(ctx, mRename, src, func(b *wire.Buffer) { b.String(dst) }, nil)
}

func decodeEntry(r *wire.Reader) Entry {
	return Entry{Name: r.String(), IsDir: r.Bool(), Blob: blob.ID(r.U64())}
}

// List enumerates a directory.
func (c *Client) List(ctx context.Context, path string) (out []Entry, err error) {
	err = c.call(ctx, mList, path, nil, func(p []byte) error {
		r := wire.NewReader(p)
		n := r.U32()
		out = make([]Entry, 0, min(n, uint32(r.Remaining())))
		for i := uint32(0); i < n && r.Err() == nil; i++ {
			out = append(out, decodeEntry(r))
		}
		return r.Err()
	})
	return out, err
}

// StatEntry describes one path.
func (c *Client) StatEntry(ctx context.Context, path string) (e Entry, err error) {
	err = c.call(ctx, mStatEntry, path, nil, func(p []byte) error {
		r := wire.NewReader(p)
		e = decodeEntry(r)
		return r.Err()
	})
	return e, err
}
