package simstore

import (
	"fmt"

	"blobseer/internal/placement"
	"blobseer/internal/sim"
	"blobseer/internal/simnet"
)

// HDFS is the simulated HDFS-like baseline: centralized namenode,
// sequential chunk writes through a pipeline with per-chunk setup cost,
// single-writer immutable files, no append.
type HDFS struct {
	Env *sim.Env
	Net *simnet.Net
	Tun Tuning

	strategy placement.Strategy
	nodes    []*placement.Node
	byAddr   map[string]simnet.NodeID
	nnNode   simnet.NodeID
	nnRes    *sim.Resource

	files map[string]*simFile
}

type simFile struct {
	blocks []simBlock
	size   int64
}

type simBlock struct {
	node simnet.NodeID
	len  int64
}

// NewHDFS deploys the baseline: namenode on nnNode, datanodes on
// dnNodes.
func NewHDFS(net *simnet.Net, tun Tuning, strategy placement.Strategy, nnNode simnet.NodeID, dnNodes []simnet.NodeID) *HDFS {
	h := &HDFS{
		Env: net.Env(), Net: net, Tun: tun,
		strategy: strategy,
		byAddr:   make(map[string]simnet.NodeID),
		nnNode:   nnNode,
		nnRes:    net.Env().NewResource(1),
		files:    make(map[string]*simFile),
	}
	for _, n := range dnNodes {
		addr := fmt.Sprintf("datanode-%d", n)
		h.byAddr[addr] = n
		h.nodes = append(h.nodes, &placement.Node{Addr: addr, Host: HostOfNode(n), Alive: true})
	}
	return h
}

func (h *HDFS) writeCap() float64 { return h.Tun.HDFSWriteEff * h.Net.Config().UpBps }
func (h *HDFS) readCap() float64  { return h.Tun.HDFSReadEff * h.Net.Config().UpBps }

// CreateFile registers an empty file.
func (h *HDFS) CreateFile(path string) error {
	if _, dup := h.files[path]; dup {
		return fmt.Errorf("simstore: file %s exists", path)
	}
	h.files[path] = &simFile{}
	return nil
}

// AppendBlock streams one chunk of ln bytes onto the file being
// written: a namenode allocation plus pipeline setup, then the
// transfer. The HDFS client writes strictly one chunk at a time.
func (h *HDFS) AppendBlock(p *sim.Proc, client simnet.NodeID, path string, ln int64) error {
	f, ok := h.files[path]
	if !ok {
		return fmt.Errorf("simstore: no such file %s", path)
	}
	// Namenode allocation (serialized, centralized).
	h.Net.Message(p, client, h.nnNode, 256)
	h.nnRes.Use(p, h.Tun.NNService)
	targets, err := h.strategy.Pick(nil, 1, 1, HostOfNode(client), h.nodes)
	if err != nil {
		return err
	}
	dst := h.byAddr[targets[0].Addr]
	p.Sleep(h.Tun.HDFSChunkSetup)
	if dst == client {
		// HDFS 0.20's local-first fast path still runs the full
		// checksummed datanode write pipeline over loopback.
		h.Net.TransferDisk(p, client, dst, ln, h.Tun.HDFSLocalWriteBps, dst)
	} else {
		h.Net.TransferDisk(p, client, dst, ln, h.writeCap(), dst)
	}
	f.blocks = append(f.blocks, simBlock{node: dst, len: ln})
	f.size += ln
	return nil
}

// Write streams a size-byte file from node client, chunk by chunk.
func (h *HDFS) Write(p *sim.Proc, client simnet.NodeID, path string, size, blockSize int64) error {
	if err := h.CreateFile(path); err != nil {
		return err
	}
	for off := int64(0); off < size; off += blockSize {
		ln := blockSize
		if off+ln > size {
			ln = size - off
		}
		if err := h.AppendBlock(p, client, path, ln); err != nil {
			return err
		}
	}
	return nil
}

// Read fetches [off, off+size) of a file from node client, chunk by
// chunk (the HDFS client reads blocks sequentially through its
// prefetching buffer).
func (h *HDFS) Read(p *sim.Proc, client simnet.NodeID, path string, off, size int64) (int64, error) {
	f, ok := h.files[path]
	if !ok {
		return 0, fmt.Errorf("simstore: no such file %s", path)
	}
	// Namenode location lookup.
	h.Net.Message(p, client, h.nnNode, 256)
	h.nnRes.Use(p, h.Tun.NNService)
	total := int64(0)
	pos := int64(0)
	for _, blk := range f.blocks {
		start, end := pos, pos+blk.len
		pos = end
		if end <= off || start >= off+size {
			continue
		}
		lo, hi := start, end
		if lo < off {
			lo = off
		}
		if hi > off+size {
			hi = off + size
		}
		n := hi - lo
		h.Net.TransferDisk(p, blk.node, client, n, h.readCap(), blk.node)
		total += n
	}
	return total, nil
}

// Size returns a file's length.
func (h *HDFS) Size(path string) int64 {
	if f, ok := h.files[path]; ok {
		return f.size
	}
	return 0
}

// Layout returns chunks-per-datanode counts (Figure 3b).
func (h *HDFS) Layout() []int { return placement.Layout(h.nodes) }

// LocationsOf returns the fabric node of each chunk of a file.
func (h *HDFS) LocationsOf(path string) []simnet.NodeID {
	f, ok := h.files[path]
	if !ok {
		return nil
	}
	out := make([]simnet.NodeID, len(f.blocks))
	for i, b := range f.blocks {
		out[i] = b.node
	}
	return out
}
