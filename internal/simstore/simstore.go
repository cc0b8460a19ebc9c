// Package simstore models BSFS and the HDFS-like baseline at the
// paper's deployment scale (270 nodes) on the simulated Grid'5000
// fabric, for what Section V plots: BSFS writes, appends and reads
// (chain replication, replica rotation, batched metadata writes, the
// version manager's serialized assignment, sharded by blob) and the
// HDFS baseline's namenode, chunk pipeline and local-first placement.
// The *decision logic* is the real library code — placement strategies
// (internal/placement), version assignment and publication ordering
// (vmanager.State), the tree nodes each write stores (mdtree.PlanNodes)
// and the block index a reader names every block's replicas from
// (mdtree.Owners) — while only the data movement is fluid-simulated. A
// read, like the real client's, pins its snapshot with one
// version-manager call and sends no metadata call. The figures' shapes
// therefore emerge from the same algorithms a real deployment runs; the
// per-stream efficiency constants of DefaultTuning are the single
// calibration. Failures, repair and the client's streaming windows are
// not modeled: the real stack's own tests and benchmarks cover them.
package simstore

import (
	"fmt"
	"math"
	"sort"

	"blobseer/internal/blob"
	"blobseer/internal/dht"
	"blobseer/internal/mdtree"
	"blobseer/internal/placement"
	"blobseer/internal/pmanager"
	"blobseer/internal/sim"
	"blobseer/internal/simnet"
	"blobseer/internal/vmanager"
)

// Tuning holds the calibration constants of the simulation.
type Tuning struct {
	// Per-flow rate caps as fractions of the link rate: single-stream
	// protocol efficiency. The paper measures ~47 MB/s HDFS writes and
	// ~65 MB/s BSFS writes on a 117.5 MB/s link.
	BSFSWriteEff float64
	BSFSReadEff  float64
	HDFSWriteEff float64
	HDFSReadEff  float64

	HDFSChunkSetup sim.Time // namenode alloc + pipeline setup per chunk
	VMService      sim.Time // version-manager service per op (the serialization point)
	VMShards       int      // control-plane shards; blob id % K picks the serving shard (0/1 = single manager)
	NNService      sim.Time // namenode service per op
	MetaService    sim.Time // metadata provider service per tree node a write stores
	MetaFanout     int      // concurrent per-provider batch RPCs per writer
	PipelineDepth  int      // concurrent block flows per BSFS client

	// HDFSLocalWriteBps caps a datanode's local write path (loopback
	// socket + checksum verification + journal): slower than one remote
	// BlobSeer stream, which is why the co-deployed RandomTextWriter
	// still favors BSFS's remote round-robin striping (Section V-G).
	HDFSLocalWriteBps float64
}

// DefaultTuning returns the calibrated constants.
func DefaultTuning() Tuning {
	return Tuning{
		BSFSWriteEff:      0.57, // ~67 MB/s
		BSFSReadEff:       0.55, // ~65 MB/s
		HDFSWriteEff:      0.40, // ~47 MB/s
		HDFSReadEff:       0.55, // ~65 MB/s solo; contention does the rest
		HDFSChunkSetup:    40 * sim.Millisecond,
		VMService:         2 * sim.Millisecond,
		NNService:         2 * sim.Millisecond,
		MetaService:       200 * sim.Microsecond,
		MetaFanout:        8,
		PipelineDepth:     2,
		HDFSLocalWriteBps: 48e6,
	}
}

// HostOfNode names the synthetic host of a fabric node (shared between
// storage and Map/Reduce co-deployment).
func HostOfNode(n simnet.NodeID) string { return fmt.Sprintf("h%d", n) }

// parallel runs n closures as child processes with bounded concurrency
// and blocks p until all complete. The kernel is cooperative, so the
// shared index needs no lock.
func parallel(p *sim.Proc, n, depth int, run func(cp *sim.Proc, i int)) {
	if n == 0 {
		return
	}
	if depth <= 0 || depth > n {
		depth = n
	}
	env := p.Env()
	done := env.NewEvent()
	next := 0
	live := depth
	for w := 0; w < depth; w++ {
		env.Go(func(cp *sim.Proc) {
			for next < n {
				i := next
				next++
				run(cp, i)
			}
			live--
			if live == 0 {
				done.Fire()
			}
		})
	}
	done.Wait(p)
}

// BSFS is the simulated BlobSeer/BSFS deployment.
type BSFS struct {
	Env *sim.Env
	Net *simnet.Net
	Tun Tuning

	VM *vmanager.State
	PM *pmanager.State

	vmNode    simnet.NodeID
	provNode  map[string]simnet.NodeID
	metaNode  map[string]simnet.NodeID
	metaAddrs []string
	ring      *dht.Ring
	vmRes     []*sim.Resource // one service queue per control-plane shard
	metaRes   map[string]*sim.Resource
	owners    map[blob.ID]*mdtree.Owners // each blob's block index, as its readers' pins extended it
	readRR    int                        // rotates the replica serving each extent fetch
}

// NewBSFS deploys a simulated BlobSeer instance: the version manager
// (and provider manager) on vmNode, metadata providers on metaNodes,
// data providers on provNodes — the paper's Section V-C layout.
func NewBSFS(net *simnet.Net, tun Tuning, strategy placement.Strategy, vmNode simnet.NodeID, metaNodes, provNodes []simnet.NodeID) *BSFS {
	shards := tun.VMShards
	if shards < 1 {
		shards = 1
	}
	b := &BSFS{
		Env: net.Env(), Net: net, Tun: tun,
		VM:       vmanager.NewState(nil),
		PM:       pmanager.NewState(strategy),
		vmNode:   vmNode,
		provNode: make(map[string]simnet.NodeID),
		metaNode: make(map[string]simnet.NodeID),
		metaRes:  make(map[string]*sim.Resource),
		owners:   make(map[blob.ID]*mdtree.Owners),
		vmRes:    make([]*sim.Resource, shards),
	}
	for k := range b.vmRes {
		b.vmRes[k] = b.Env.NewResource(1)
	}
	for _, n := range provNodes {
		addr := fmt.Sprintf("provider-%d", n)
		b.provNode[addr] = n
		b.PM.Register(addr, HostOfNode(n))
	}
	for _, n := range metaNodes {
		addr := fmt.Sprintf("meta-%d", n)
		b.metaNode[addr] = n
		b.metaAddrs = append(b.metaAddrs, addr)
		b.metaRes[addr] = b.Env.NewResource(1)
	}
	b.ring = dht.NewRing(b.metaAddrs, dht.DefaultVnodes)
	return b
}

// CreateBlob registers a new blob (instantaneous control plane: the
// paper's deployments create files once before measuring).
func (b *BSFS) CreateBlob(blockSize int64, replication int) blob.Meta {
	m, err := b.VM.CreateBlob(blockSize, replication)
	if err != nil {
		panic(err)
	}
	return m
}

// chargeMetaOps bills the DHT traffic of the tree nodes a write stores
// the way the real client ships them: grouped by responsible provider,
// one batched RPC per provider in parallel. Each provider still pays the
// per-node service time (its store is touched once per node), but the
// per-node network round-trip collapses into one per provider.
func (b *BSFS) chargeMetaOps(p *sim.Proc, client simnet.NodeID, keys []string) {
	groups := make(map[string][]string)
	for _, k := range keys {
		addr := b.ring.Lookup(k, 1)[0]
		groups[addr] = append(groups[addr], k)
	}
	addrs := make([]string, 0, len(groups))
	for addr := range groups {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs) // deterministic simulation order
	parallel(p, len(addrs), b.Tun.MetaFanout, func(cp *sim.Proc, i int) {
		addr := addrs[i]
		batch := groups[addr]
		b.Net.Message(cp, client, b.metaNode[addr], 64+int64(len(batch))*192)
		b.metaRes[addr].Use(cp, b.Tun.MetaService*sim.Time(len(batch)))
	})
}

// vmShardRes returns the service queue of the version-manager shard
// owning id, mirroring vmanager.ShardOf.
func (b *BSFS) vmShardRes(id blob.ID) *sim.Resource {
	if len(b.vmRes) == 1 {
		return b.vmRes[0]
	}
	return b.vmRes[vmanager.ShardOf(id, len(b.vmRes))]
}

// writeCap and readCap are the per-flow rate ceilings: single-stream
// protocol efficiency as a fraction of the link rate.
func (b *BSFS) writeCap() float64 { return b.Tun.BSFSWriteEff * b.Net.Config().UpBps }
func (b *BSFS) readCap() float64  { return b.Tun.BSFSReadEff * b.Net.Config().UpBps }

// Write performs the full two-phase write protocol from node client.
// It returns the assigned version.
func (b *BSFS) Write(p *sim.Proc, client simnet.NodeID, id blob.ID, kind blob.WriteKind, off, size int64, nonce uint64) (blob.Version, error) {
	h, err := b.head(id)
	if err != nil {
		return 0, err
	}
	m := h.Meta
	nBlocks := int(blob.Blocks(size, m.BlockSize))

	// Provider allocation (provider manager co-hosted with the VM node).
	b.Net.Message(p, client, b.vmNode, 256)
	targets, err := b.PM.Allocate(nBlocks, m.Replication, HostOfNode(client))
	if err != nil {
		return 0, err
	}

	// Phase 1: data transfer, PipelineDepth flows in parallel.
	parallel(p, nBlocks, b.Tun.PipelineDepth, func(cp *sim.Proc, i int) {
		blockLen := m.BlockSize
		if int64(i) == int64(nBlocks-1) {
			if rem := size - int64(nBlocks-1)*m.BlockSize; rem > 0 {
				blockLen = rem
			}
		}
		// Chain replication, as in the real client: the client ships
		// the block once to the chain head; every hop streams frames to
		// the next replica while persisting locally (the provider's
		// storage medium is in the path whether the block travels the
		// network or stays local), so all hops are concurrently active
		// flows and the block completes when the slowest hop (the one
		// its tail ack waits on) finishes. The client is charged B of
		// egress; each further hop bills the forwarding provider's
		// uplink.
		env := cp.Env()
		done := env.NewEvent()
		live := len(targets.Block(i))
		src := client
		for _, addr := range targets.Block(i) {
			hopSrc, hopDst := src, b.provNode[addr]
			env.Go(func(hp *sim.Proc) {
				b.Net.TransferDisk(hp, hopSrc, hopDst, blockLen, b.writeCap(), hopDst)
				live--
				if live == 0 {
					done.Fire()
				}
			})
			src = hopDst
		}
		done.Wait(cp)
	})

	// Phase 2a: version assignment — the only serialized step, queued
	// on the service resource of the shard owning this blob (the
	// simulated twin of vmanager.Client's ShardOf(id, K) dispatch).
	// Writers to blobs on different shards never share a queue. The
	// assignment carries the write's placement, which readers name
	// every block's replicas from.
	b.Net.Message(p, client, b.vmNode, 128)
	b.vmShardRes(id).Use(p, b.Tun.VMService)
	a, err := b.VM.AssignVersion(id, kind, off, size, nonce, 0, targets.Addrs...)
	if err != nil {
		return 0, err
	}

	// Phase 2b: metadata weaving, billed for the nodes the real tree
	// code plans for this version.
	hist := &blob.History{}
	if err := hist.Extend(a.Descs); err != nil {
		return 0, err
	}
	created, err := mdtree.PlanNodes(m, hist, a.Version)
	if err != nil {
		return 0, err
	}
	keys := make([]string, len(created))
	for i, idn := range created {
		keys[i] = idn.Key()
	}
	b.chargeMetaOps(p, client, keys)

	// Phase 2c: commit.
	b.Net.Message(p, client, b.vmNode, 64)
	if err := b.VM.Commit(id, a.Version); err != nil {
		return 0, err
	}
	return a.Version, nil
}

// head returns the blob's configuration and published state, without
// its history.
func (b *BSFS) head(id blob.ID) (vmanager.Head, error) {
	h, _, err := b.VM.LatestSince(id, math.MaxUint64, blob.NoVersion)
	return h, err
}

// resolve pins the blob's latest published version and returns the
// extents covering r, as the real client's Snapshot does: the pin's
// history extends the blob's block index, which names every block's
// replicas, so no tree node is read.
func (b *BSFS) resolve(id blob.ID, r blob.Range) ([]mdtree.Extent, error) {
	o := b.owners[id]
	if o == nil {
		o = new(mdtree.Owners)
		b.owners[id] = o
	}
	for {
		h, descs, err := b.VM.LatestSince(id, o.Through(), blob.NoVersion)
		if err != nil {
			return nil, err
		}
		if err := o.Extend(h.Meta, descs); err != nil {
			return nil, err
		}
		if len(descs) == 0 || o.Through() >= h.Published {
			var sc mdtree.Scratch
			return o.Resolve(h.Meta, h.Published, h.Size, r, &sc)
		}
	}
}

// Read fetches [off, off+size) of the latest published version from
// node client, returning the bytes-equivalent amount read.
func (b *BSFS) Read(p *sim.Proc, client simnet.NodeID, id blob.ID, off, size int64) (int64, error) {
	// The pin: one version-manager call, the only metadata a read sends.
	b.Net.Message(p, client, b.vmNode, 64)
	extents, err := b.resolve(id, blob.Range{Off: off, Len: size})
	if err != nil {
		return 0, err
	}
	// Block fetches. A replica co-located with the reading client is
	// served locally (Map/Reduce schedules tasks for exactly that);
	// otherwise rotate across the replica set so concurrent readers
	// spread load instead of piling onto the first replica (the
	// cooperative kernel makes the shared rotation cursor safe).
	parallel(p, len(extents), b.Tun.PipelineDepth, func(cp *sim.Proc, i int) {
		e := extents[i]
		addrs := e.Block.Providers
		if !e.HasData || len(addrs) == 0 {
			return
		}
		pick := -1
		for j, addr := range addrs {
			if b.provNode[addr] == client {
				pick = j
				break
			}
		}
		if pick < 0 {
			pick = b.readRR % len(addrs)
			b.readRR++
		}
		src := b.provNode[addrs[pick]]
		b.Net.TransferDisk(cp, src, client, e.Len, b.readCap(), src)
	})
	total := int64(0)
	for _, e := range extents {
		total += e.Len
	}
	return total, nil
}

// Layout returns blocks-per-provider counts (Figure 3b).
func (b *BSFS) Layout() []int { return b.PM.Layout() }

// LocationsOf returns, for each block of the blob's latest version, the
// fabric node storing it (the simulated Map/Reduce scheduler's locality
// source).
func (b *BSFS) LocationsOf(id blob.ID) ([]simnet.NodeID, error) {
	extents, err := b.resolve(id, blob.Range{Off: 0, Len: math.MaxInt64})
	if err != nil {
		return nil, err
	}
	out := make([]simnet.NodeID, 0, len(extents))
	for _, e := range extents {
		if e.HasData && len(e.Block.Providers) > 0 {
			out = append(out, b.provNode[e.Block.Providers[0]])
		} else {
			out = append(out, -1)
		}
	}
	return out, nil
}
