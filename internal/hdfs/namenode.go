// Package hdfs is the baseline the paper compares BSFS against: a
// faithful-in-shape reimplementation of the HDFS 0.20 storage model
// (Section II-B). A centralized namenode keeps both the directory
// structure and the chunk layout; datanodes store 64 MB blocks (they
// are the provider daemon); files are single-writer, immutable once
// closed, and — deliberately — there is NO append (Section V-F: "We
// could not perform the same experiment for HDFS, since it does not
// implement the append operation").
//
// The client moves bytes exactly as the BSFS client does, so that a
// BSFS/HDFS ratio measures the designs: stream.Writer and stream.Reader
// with HDFS's hooks, blocks sent once down the namenode's target list
// as a chained put (the HDFS replication pipeline: each datanode stores
// and forwards) and read with GetInto into the reader's recycled buffer,
// namenode calls on recycled frames. Write-behind is ordered — one
// commit worker, block n+1 buffering while block n drains — because the
// namenode accepts CompleteBlock only for a file's last block. What is
// deliberately still different is the paper's list: a central namenode
// on every block allocation and completion, single-writer leases,
// sticky-random placement, no versioning, no append. Known gap: the
// datanode blocks of deleted or replaced files are never invalidated.
package hdfs

import (
	"context"
	"fmt"
	"sync"

	"blobseer/internal/blob"
	"blobseer/internal/fs"
	"blobseer/internal/namespace"
	"blobseer/internal/placement"
)

// FileID identifies a file inode on the namenode.
type FileID uint64

// BlockID identifies one stored chunk.
type BlockID uint64

// blockInfo is one chunk of a file.
type blockInfo struct {
	id        BlockID
	length    int64
	locations []string // datanode addresses
}

type fileMeta struct {
	blocks []blockInfo
	size   int64
	open   bool
	lease  string
}

// Namenode is the centralized metadata server. It reuses the namespace
// tree for the directory structure (files resolve to FileIDs) and adds
// the chunk-layout map — the two metadata kinds GoogleFS/HDFS
// centralize on one master (Section II-B).
type Namenode struct {
	mu        sync.Mutex
	ns        *namespace.State
	files     map[FileID]*fileMeta
	nextFile  FileID
	nextBlock BlockID
	nodes     []*placement.Node
	byAddr    map[string]*placement.Node
	strategy  placement.Strategy
	picks     []*placement.Node // the strategy's output vector, reused
	blockSize int64
}

// NewNamenode returns a namenode placing blocks with strategy.
// DefaultStrategy() reproduces the behaviour measured in the paper.
func NewNamenode(blockSize int64, strategy placement.Strategy) *Namenode {
	n := &Namenode{
		files:     make(map[FileID]*fileMeta),
		byAddr:    make(map[string]*placement.Node),
		strategy:  strategy,
		blockSize: blockSize,
	}
	n.ns = namespace.NewState(func(ctx context.Context, _ int64, _ int) (blob.ID, error) {
		// The namespace creator runs under n.mu (callers hold it). It only
		// numbers the file: Create records it once the tree has linked it.
		n.nextFile++
		return blob.ID(n.nextFile), nil
	})
	return n
}

// DefaultStrategy is the calibrated model of HDFS 0.20's placement: the
// first replica goes to the local datanode when the client is
// co-deployed; otherwise targets are random with a sticky window, which
// reproduces the chunk clustering the paper measured in Figure 3(b).
func DefaultStrategy(seed uint64) placement.Strategy {
	return placement.NewLocalFirst(placement.NewRandomSticky(8, seed))
}

// BlockSize returns the chunk size.
func (n *Namenode) BlockSize() int64 { return n.blockSize }

// RegisterDatanode adds a datanode.
func (n *Namenode) RegisterDatanode(addr, host string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if nd, ok := n.byAddr[addr]; ok {
		nd.Alive = true
		nd.Host = host
		return
	}
	nd := &placement.Node{Addr: addr, Host: host, Alive: true}
	n.nodes = append(n.nodes, nd)
	n.byAddr[addr] = nd
}

// Layout returns blocks-per-datanode counts (Figure 3(b) metric).
func (n *Namenode) Layout() []int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return placement.Layout(n.nodes)
}

// Create registers a new file held by lease. Concurrent writers are
// rejected: HDFS allows only one writer at a time.
func (n *Namenode) Create(path string, overwrite bool, lease string) (FileID, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	// Overwriting a file currently open by another writer is refused.
	if e, err := n.ns.StatEntry(path); err == nil && !e.IsDir {
		if fm := n.files[FileID(e.Blob)]; fm != nil && fm.open {
			return 0, fs.ErrBusy
		}
	}
	id, err := n.ns.CreateFile(context.Background(), path, n.blockSize, 1, overwrite)
	if err != nil {
		return 0, err
	}
	n.lockedForgetOrphans() // the file this one replaced
	n.files[FileID(id)] = &fileMeta{open: true, lease: lease}
	return FileID(id), nil
}

// lockedForgetOrphans drops the chunk layout of every file the
// namespace tree unlinked since the last call (delete, overwrite), and
// with it the tree's own list of them.
func (n *Namenode) lockedForgetOrphans() {
	for _, id := range n.ns.Orphaned() {
		delete(n.files, FileID(id))
	}
}

// AddBlock allocates the next chunk of an open file and picks its
// target datanode(s).
func (n *Namenode) AddBlock(id FileID, lease string, clientHost string, replicas int) (BlockID, []string, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	fm, ok := n.files[id]
	if !ok {
		return 0, nil, fs.ErrNotFound
	}
	if !fm.open || fm.lease != lease {
		return 0, nil, fs.ErrBusy
	}
	if replicas < 1 {
		replicas = 1
	}
	targets, err := n.strategy.Pick(n.picks[:0], 1, replicas, clientHost, n.nodes)
	if err != nil {
		return 0, nil, err
	}
	n.picks = targets
	n.nextBlock++
	bid := n.nextBlock
	addrs := make([]string, len(targets))
	for i, nd := range targets {
		addrs[i] = nd.Addr
	}
	fm.blocks = append(fm.blocks, blockInfo{id: bid, locations: addrs})
	return bid, addrs, nil
}

// CompleteBlock records the written length of the file's last block,
// making those bytes visible to readers.
func (n *Namenode) CompleteBlock(id FileID, lease string, bid BlockID, length int64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	fm, ok := n.files[id]
	if !ok {
		return fs.ErrNotFound
	}
	if !fm.open || fm.lease != lease {
		return fs.ErrBusy
	}
	if len(fm.blocks) == 0 || fm.blocks[len(fm.blocks)-1].id != bid {
		return fmt.Errorf("hdfs: block %d is not the file's last block", bid)
	}
	if length < 0 || length > n.blockSize {
		return fmt.Errorf("hdfs: bad block length %d", length)
	}
	fm.blocks[len(fm.blocks)-1].length = length
	fm.size += length
	return nil
}

// CompleteFile closes the file; it becomes immutable.
func (n *Namenode) CompleteFile(id FileID, lease string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	fm, ok := n.files[id]
	if !ok {
		return fs.ErrNotFound
	}
	if !fm.open || fm.lease != lease {
		return fs.ErrBusy
	}
	fm.open = false
	fm.lease = ""
	return nil
}

// LocatedBlock is one chunk of a read plan.
type LocatedBlock struct {
	Block     BlockID
	Off       int64 // offset in file
	Len       int64
	Locations []string // datanode addresses
	Hosts     []string // physical hosts of those datanodes
}

// GetBlockLocations resolves path and returns the chunks overlapping
// [off, off+length), with their datanodes — Hadoop's central read and
// scheduling primitive.
func (n *Namenode) GetBlockLocations(path string, off, length int64) ([]LocatedBlock, int64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	id, err := n.ns.GetFile(path)
	if err != nil {
		return nil, 0, err
	}
	fm := n.files[FileID(id)]
	if fm == nil {
		return nil, 0, fs.ErrNotFound
	}
	var out []LocatedBlock
	pos := int64(0)
	for _, b := range fm.blocks {
		blockRange := blob.Range{Off: pos, Len: b.length}
		if blockRange.Intersects(blob.Range{Off: off, Len: length}) {
			hosts := make([]string, len(b.locations))
			for i, addr := range b.locations {
				if nd, ok := n.byAddr[addr]; ok {
					hosts[i] = nd.Host
				}
			}
			out = append(out, LocatedBlock{Block: b.id, Off: pos, Len: b.length, Locations: b.locations, Hosts: hosts})
		}
		pos += b.length
	}
	return out, fm.size, nil
}

// Stat describes a path.
func (n *Namenode) Stat(path string) (fs.FileStatus, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	e, err := n.ns.StatEntry(path)
	if err != nil {
		return fs.FileStatus{}, err
	}
	st := fs.FileStatus{Path: fs.Clean(path), IsDir: e.IsDir}
	if !e.IsDir {
		if fm := n.files[FileID(e.Blob)]; fm != nil {
			st.Size = fm.size
		}
	}
	return st, nil
}

// List enumerates a directory.
func (n *Namenode) List(path string) ([]fs.FileStatus, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	entries, err := n.ns.List(path)
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
			if fm := n.files[FileID(e.Blob)]; fm != nil {
				st.Size = fm.size
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// Mkdirs creates directories.
func (n *Namenode) Mkdirs(path string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ns.Mkdirs(path)
}

// Delete unlinks a path and forgets the chunk layout of removed files.
func (n *Namenode) Delete(path string, recursive bool) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, err := n.ns.Delete(path, recursive); err != nil {
		return err
	}
	n.lockedForgetOrphans()
	return nil
}

// Rename moves a path.
func (n *Namenode) Rename(src, dst string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ns.Rename(src, dst)
}
