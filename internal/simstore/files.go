package simstore

import (
	"fmt"

	"blobseer/internal/blob"
	"blobseer/internal/sim"
	"blobseer/internal/simnet"
	"blobseer/internal/util"
)

// Storage is the file-level view the simulated Map/Reduce engine uses —
// the moral equivalent of fs.FileSystem for the fluid models.
type Storage interface {
	Name() string
	BlockSize() int64
	// Env returns the simulation environment the storage runs in.
	Env() *sim.Env
	// CreateFile registers an empty file.
	CreateFile(name string) error
	// AppendBlock appends n bytes (<= block size) from node client.
	AppendBlock(p *sim.Proc, client simnet.NodeID, name string, n int64) error
	// ReadRange fetches [off, off+size) from node client.
	ReadRange(p *sim.Proc, client simnet.NodeID, name string, off, size int64) error
	// Size returns the file length.
	Size(name string) int64
	// ChunkNodes returns the fabric node storing each chunk (locality).
	ChunkNodes(name string) []simnet.NodeID
}

// BSFSFiles adapts the simulated BSFS to the Storage interface: one
// BLOB per file, appends through the full two-phase protocol.
type BSFSFiles struct {
	B           *BSFS
	BlockSz     int64
	Replication int

	files map[string]blob.ID
	nonce uint64
}

var _ Storage = (*BSFSFiles)(nil)

// NewBSFSFiles wraps b.
func NewBSFSFiles(b *BSFS, blockSize int64, replication int) *BSFSFiles {
	if replication < 1 {
		replication = 1
	}
	return &BSFSFiles{B: b, BlockSz: blockSize, Replication: replication, files: make(map[string]blob.ID)}
}

// Name implements Storage.
func (f *BSFSFiles) Name() string { return "bsfs" }

// Env implements Storage.
func (f *BSFSFiles) Env() *sim.Env { return f.B.Env }

// BlockSize implements Storage.
func (f *BSFSFiles) BlockSize() int64 { return f.BlockSz }

// CreateFile implements Storage.
func (f *BSFSFiles) CreateFile(name string) error {
	if _, dup := f.files[name]; dup {
		return fmt.Errorf("simstore: file %s exists", name)
	}
	m := f.B.CreateBlob(f.BlockSz, f.Replication)
	f.files[name] = m.ID
	return nil
}

// AppendBlock implements Storage.
func (f *BSFSFiles) AppendBlock(p *sim.Proc, client simnet.NodeID, name string, n int64) error {
	id, ok := f.files[name]
	if !ok {
		return fmt.Errorf("simstore: no such file %s", name)
	}
	f.nonce++
	_, err := f.B.Write(p, client, id, blob.KindAppend, 0, n, f.nonce)
	return err
}

// ReadRange implements Storage.
func (f *BSFSFiles) ReadRange(p *sim.Proc, client simnet.NodeID, name string, off, size int64) error {
	id, ok := f.files[name]
	if !ok {
		return fmt.Errorf("simstore: no such file %s", name)
	}
	_, err := f.B.Read(p, client, id, off, size)
	return err
}

// Size implements Storage.
func (f *BSFSFiles) Size(name string) int64 {
	id, ok := f.files[name]
	if !ok {
		return 0
	}
	_, size, err := f.B.VM.Latest(id)
	if err != nil {
		return 0
	}
	return size
}

// ChunkNodes implements Storage.
func (f *BSFSFiles) ChunkNodes(name string) []simnet.NodeID {
	id, ok := f.files[name]
	if !ok {
		return nil
	}
	nodes, err := f.B.LocationsOf(id)
	if err != nil {
		return nil
	}
	return nodes
}

// HDFSFiles adapts the simulated HDFS baseline to Storage. Appends are
// only legal while the single writer streams the file (the baseline has
// no reopen-append, matching the real system).
type HDFSFiles struct {
	H       *HDFS
	BlockSz int64
}

var _ Storage = (*HDFSFiles)(nil)

// NewHDFSFiles wraps h.
func NewHDFSFiles(h *HDFS, blockSize int64) *HDFSFiles {
	return &HDFSFiles{H: h, BlockSz: blockSize}
}

// Name implements Storage.
func (f *HDFSFiles) Name() string { return "hdfs" }

// Env implements Storage.
func (f *HDFSFiles) Env() *sim.Env { return f.H.Env }

// BlockSize implements Storage.
func (f *HDFSFiles) BlockSize() int64 { return f.BlockSz }

// CreateFile implements Storage.
func (f *HDFSFiles) CreateFile(name string) error { return f.H.CreateFile(name) }

// AppendBlock implements Storage.
func (f *HDFSFiles) AppendBlock(p *sim.Proc, client simnet.NodeID, name string, n int64) error {
	return f.H.AppendBlock(p, client, name, util.Min(n, f.BlockSz))
}

// ReadRange implements Storage.
func (f *HDFSFiles) ReadRange(p *sim.Proc, client simnet.NodeID, name string, off, size int64) error {
	_, err := f.H.Read(p, client, name, off, size)
	return err
}

// Size implements Storage.
func (f *HDFSFiles) Size(name string) int64 { return f.H.Size(name) }

// ChunkNodes implements Storage.
func (f *HDFSFiles) ChunkNodes(name string) []simnet.NodeID { return f.H.LocationsOf(name) }
