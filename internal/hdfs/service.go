package hdfs

import (
	"context"

	"blobseer/internal/fs"
	"blobseer/internal/obs"
	"blobseer/internal/rpc"
	"blobseer/internal/wire"
)

// RPC method numbers for the namenode.
const (
	mRegisterDatanode uint16 = iota + 1
	mCreate
	mAddBlock
	mCompleteBlock
	mCompleteFile
	mGetBlockLocations
	mStat
	mList
	mMkdirs
	mDelete
	mRename
)

// Service is the namenode RPC shell.
type Service struct {
	nn  *Namenode
	reg *obs.Registry
}

// NewService wraps nn.
func NewService(nn *Namenode) *Service { return &Service{nn: nn, reg: obs.NewRegistry()} }

// Namenode exposes the core (tests).
func (s *Service) Namenode() *Namenode { return s.nn }

// Metrics exposes the namenode's registry (per-method counts, errors and
// latency) for HTTP export.
func (s *Service) Metrics() *obs.Registry { return s.reg }

// Mux returns the dispatch table, metered on the namenode's registry.
// The namenode keeps everything in memory, so every method waits on
// nothing and runs inline (rpc's dispatch rule), as BSFS's control
// plane's do.
func (s *Service) Mux() *rpc.Mux {
	m := rpc.NewMeteredMux("namenode", s.reg)
	m.HandleInline(mRegisterDatanode, "register_datanode", s.handleRegister)
	m.HandleInline(mCreate, "create", s.handleCreate)
	m.HandleInline(mAddBlock, "add_block", s.handleAddBlock)
	m.HandleInline(mCompleteBlock, "complete_block", s.handleCompleteBlock)
	m.HandleInline(mCompleteFile, "complete_file", s.handleCompleteFile)
	m.HandleInline(mGetBlockLocations, "get_block_locations", s.handleGetBlockLocations)
	m.HandleInline(mStat, "stat", s.handleStat)
	m.HandleInline(mList, "list", s.handleList)
	m.HandleInline(mMkdirs, "mkdirs", s.handleMkdirs)
	m.HandleInline(mDelete, "delete", s.handleDelete)
	m.HandleInline(mRename, "rename", s.handleRename)
	return m
}

func (s *Service) handleRegister(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	addr, host := r.String(), r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	s.nn.RegisterDatanode(addr, host)
	return nil, nil
}

func (s *Service) handleCreate(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	path := r.String()
	overwrite := r.Bool()
	lease := r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	id, err := s.nn.Create(path, overwrite, lease)
	if err != nil {
		return nil, err
	}
	b := rpc.NewFrame(8)
	b.U64(uint64(id))
	return b, nil
}

func (s *Service) handleAddBlock(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	id := FileID(r.U64())
	lease := r.String()
	clientHost := r.String()
	replicas := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	bid, addrs, err := s.nn.AddBlock(id, lease, clientHost, replicas)
	if err != nil {
		return nil, err
	}
	b := rpc.NewFrame(32)
	b.U64(uint64(bid))
	b.StringSlice(addrs)
	return b, nil
}

func (s *Service) handleCompleteBlock(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	id := FileID(r.U64())
	lease := r.String()
	bid := BlockID(r.U64())
	length := r.I64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return nil, s.nn.CompleteBlock(id, lease, bid, length)
}

func (s *Service) handleCompleteFile(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	id := FileID(r.U64())
	lease := r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return nil, s.nn.CompleteFile(id, lease)
}

func (s *Service) handleGetBlockLocations(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	path := r.String()
	off, length := r.I64(), r.I64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	blocks, size, err := s.nn.GetBlockLocations(path, off, length)
	if err != nil {
		return nil, err
	}
	b := rpc.NewFrame(64)
	b.I64(size)
	b.U32(uint32(len(blocks)))
	for _, lb := range blocks {
		b.U64(uint64(lb.Block))
		b.I64(lb.Off)
		b.I64(lb.Len)
		b.StringSlice(lb.Locations)
		b.StringSlice(lb.Hosts)
	}
	return b, nil
}

func encodeStatus(b *wire.Buffer, st fs.FileStatus) {
	b.String(st.Path)
	b.I64(st.Size)
	b.Bool(st.IsDir)
}

func decodeStatus(r *wire.Reader) fs.FileStatus {
	return fs.FileStatus{Path: r.String(), Size: r.I64(), IsDir: r.Bool()}
}

func (s *Service) handleStat(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	path := r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	st, err := s.nn.Stat(path)
	if err != nil {
		return nil, err
	}
	b := rpc.NewFrame(32)
	encodeStatus(b, st)
	return b, nil
}

func (s *Service) handleList(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	path := r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	sts, err := s.nn.List(path)
	if err != nil {
		return nil, err
	}
	b := rpc.NewFrame(64)
	b.U32(uint32(len(sts)))
	for _, st := range sts {
		encodeStatus(b, st)
	}
	return b, nil
}

func (s *Service) handleMkdirs(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	path := r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return nil, s.nn.Mkdirs(path)
}

func (s *Service) handleDelete(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	path := r.String()
	recursive := r.Bool()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return nil, s.nn.Delete(path, recursive)
}

func (s *Service) handleRename(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	src, dst := r.String(), r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return nil, s.nn.Rename(src, dst)
}

// NNClient is the namenode RPC client.
type NNClient struct {
	pool *rpc.Pool
	addr string
}

// NewNNClient returns a client for the namenode at addr.
func NewNNClient(pool *rpc.Pool, addr string) *NNClient {
	return &NNClient{pool: pool, addr: addr}
}

// call issues one RPC (see rpc.Pool.Call for enc and dec). One attempt:
// the namenode keeps no log to come back from, and Create and AddBlock
// are not idempotent.
func (c *NNClient) call(ctx context.Context, m uint16, size int, enc func(*wire.Buffer), dec func([]byte) error) error {
	return c.pool.Call(ctx, rpc.Backoff{}, c.addr, m, size, enc, dec)
}

// Register announces a datanode.
func (c *NNClient) Register(ctx context.Context, addr, host string) error {
	return c.call(ctx, mRegisterDatanode, 16+len(addr)+len(host), func(b *wire.Buffer) {
		b.String(addr)
		b.String(host)
	}, nil)
}

// Create registers a new single-writer file.
func (c *NNClient) Create(ctx context.Context, path string, overwrite bool, lease string) (id FileID, err error) {
	err = c.call(ctx, mCreate, 32+len(path), func(b *wire.Buffer) {
		b.String(path)
		b.Bool(overwrite)
		b.String(lease)
	}, func(p []byte) error {
		r := wire.NewReader(p)
		id = FileID(r.U64())
		return r.Err()
	})
	return id, err
}

// AddBlock allocates the file's next chunk.
func (c *NNClient) AddBlock(ctx context.Context, id FileID, lease, clientHost string, replicas int) (bid BlockID, addrs []string, err error) {
	err = c.call(ctx, mAddBlock, 40+len(clientHost), func(b *wire.Buffer) {
		b.U64(uint64(id))
		b.String(lease)
		b.String(clientHost)
		b.U32(uint32(replicas))
	}, func(p []byte) error {
		r := wire.NewReader(p)
		bid = BlockID(r.U64())
		addrs = r.StringSlice()
		return r.Err()
	})
	return bid, addrs, err
}

// CompleteBlock commits the last block's length.
func (c *NNClient) CompleteBlock(ctx context.Context, id FileID, lease string, bid BlockID, length int64) error {
	return c.call(ctx, mCompleteBlock, 48, func(b *wire.Buffer) {
		b.U64(uint64(id))
		b.String(lease)
		b.U64(uint64(bid))
		b.I64(length)
	}, nil)
}

// CompleteFile closes the file.
func (c *NNClient) CompleteFile(ctx context.Context, id FileID, lease string) error {
	return c.call(ctx, mCompleteFile, 32, func(b *wire.Buffer) {
		b.U64(uint64(id))
		b.String(lease)
	}, nil)
}

// GetBlockLocations fetches the chunks overlapping a range.
func (c *NNClient) GetBlockLocations(ctx context.Context, path string, off, length int64) (blocks []LocatedBlock, size int64, err error) {
	err = c.call(ctx, mGetBlockLocations, 24+len(path), func(b *wire.Buffer) {
		b.String(path)
		b.I64(off)
		b.I64(length)
	}, func(p []byte) error {
		r := wire.NewReader(p)
		size = r.I64()
		n := r.U32()
		blocks = make([]LocatedBlock, 0, min(n, uint32(r.Remaining())))
		for i := uint32(0); i < n && r.Err() == nil; i++ {
			blocks = append(blocks, LocatedBlock{
				Block:     BlockID(r.U64()),
				Off:       r.I64(),
				Len:       r.I64(),
				Locations: r.StringSlice(),
				Hosts:     r.StringSlice(),
			})
		}
		return r.Err()
	})
	return blocks, size, err
}

// pathCall issues an RPC whose request is one path, plus what enc adds.
func (c *NNClient) pathCall(ctx context.Context, m uint16, path string, enc func(*wire.Buffer), dec func([]byte) error) error {
	return c.call(ctx, m, 16+len(path), func(b *wire.Buffer) {
		b.String(path)
		if enc != nil {
			enc(b)
		}
	}, dec)
}

// Stat describes a path.
func (c *NNClient) Stat(ctx context.Context, path string) (st fs.FileStatus, err error) {
	err = c.pathCall(ctx, mStat, path, nil, func(p []byte) error {
		r := wire.NewReader(p)
		st = decodeStatus(r)
		return r.Err()
	})
	return st, err
}

// List enumerates a directory.
func (c *NNClient) List(ctx context.Context, path string) (out []fs.FileStatus, err error) {
	err = c.pathCall(ctx, mList, path, nil, func(p []byte) error {
		r := wire.NewReader(p)
		n := r.U32()
		out = make([]fs.FileStatus, 0, min(n, uint32(r.Remaining())))
		for i := uint32(0); i < n && r.Err() == nil; i++ {
			out = append(out, decodeStatus(r))
		}
		return r.Err()
	})
	return out, err
}

// Mkdirs creates directories.
func (c *NNClient) Mkdirs(ctx context.Context, path string) error {
	return c.pathCall(ctx, mMkdirs, path, nil, nil)
}

// Delete unlinks a path.
func (c *NNClient) Delete(ctx context.Context, path string, recursive bool) error {
	return c.pathCall(ctx, mDelete, path, func(b *wire.Buffer) { b.Bool(recursive) }, nil)
}

// Rename moves a path.
func (c *NNClient) Rename(ctx context.Context, src, dst string) error {
	return c.pathCall(ctx, mRename, src, func(b *wire.Buffer) { b.String(dst) }, nil)
}
