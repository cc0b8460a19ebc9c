// Package simstore models BSFS and the HDFS-like baseline at the
// paper's deployment scale (270 nodes) on the simulated Grid'5000
// fabric. Crucially, the *decision logic* is the real library code —
// placement strategies (internal/placement), version assignment and
// publication ordering (vmanager.State), and segment-tree construction
// and resolution (mdtree over an in-memory store) — while only the data
// movement is fluid-simulated. The figures' shapes therefore emerge
// from the same algorithms a real deployment runs; the per-stream
// efficiency constants are the single calibration documented in
// EXPERIMENTS.md.
package simstore

import (
	"context"
	"fmt"
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
	MetaService    sim.Time // metadata provider service per op
	MetaFanout     int      // concurrent per-provider batch RPCs per client
	PipelineDepth  int      // concurrent block flows per BSFS client

	// BSFS client streaming-pipeline windows (Section IV-B): how many
	// block fetches a sequential reader keeps in flight ahead of the
	// consumer, and how many full-block commits a writer keeps in
	// flight behind the producer. Zero models the synchronous client
	// the paper measured — the figures are calibrated against it — so
	// DefaultTuning leaves both off; the streaming ablation and the
	// Stream benchmarks turn them on to quantify the overlap win.
	ReadaheadBlocks  int
	WriteBehindDepth int

	// HDFSLocalWriteBps caps a datanode's local write path (loopback
	// socket + checksum verification + journal): slower than one remote
	// BlobSeer stream, which is why the co-deployed RandomTextWriter
	// still favors BSFS's remote round-robin striping (Section V-G).
	HDFSLocalWriteBps float64

	// Cold-tier model for providers on a tiered store (store.Tiered).
	// A block marked demoted serves its next read from the cold tier:
	// the flow is capped at ColdReadBps (the slow backend's media rate)
	// and pays ColdPenalty once (promotion setup: cold open + hot
	// install), after which the block is hot again. Zero ColdReadBps
	// leaves tiering unmodeled — the calibrated figures are unchanged.
	ColdReadBps float64
	ColdPenalty sim.Time
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

// ProviderAddr returns the simulated RPC address of the data provider
// deployed on node n (failure injection and repair experiments name
// providers by address, as the real stack does).
func ProviderAddr(n simnet.NodeID) string { return fmt.Sprintf("provider-%d", n) }

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

	VM    *vmanager.State
	PM    *pmanager.State
	Store *mdtree.MemStore

	vmNode    simnet.NodeID
	provNode  map[string]simnet.NodeID
	metaNode  map[string]simnet.NodeID
	metaAddrs []string
	ring      *dht.Ring
	vmRes     []*sim.Resource // one service queue per control-plane shard
	metaRes   map[string]*sim.Resource
	readRR    int // rotates the replica serving each extent fetch

	// Self-healing state (mirrors internal/repair over the simulated
	// fabric): dead providers serve nothing, the overlay records where
	// repair pushed relocated replicas, and the counters feed the
	// kill-provider ablation.
	dead           map[string]bool
	overlay        map[string][]string // block key -> extra replica addrs
	RepairedBlocks int
	RepairedBytes  int64

	// Tiered-store state (see Tuning.ColdReadBps): every written block
	// key, which of them currently live cold, and how many reads paid
	// the promotion path.
	blocks         map[string]bool
	demoted        map[string]bool
	PromotedBlocks int
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
		Store:    mdtree.NewMemStore(),
		vmNode:   vmNode,
		provNode: make(map[string]simnet.NodeID),
		metaNode: make(map[string]simnet.NodeID),
		metaRes:  make(map[string]*sim.Resource),
		vmRes:    make([]*sim.Resource, shards),
		dead:     make(map[string]bool),
		overlay:  make(map[string][]string),
		blocks:   make(map[string]bool),
		demoted:  make(map[string]bool),
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

// chargeMetaOps bills DHT traffic for a set of tree-node keys the way
// the real client now ships them: grouped by responsible provider, one
// batched RPC per provider in parallel. Each provider still pays the
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
	m, err := b.VM.GetMeta(id)
	if err != nil {
		return 0, err
	}
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
	// Writers to blobs on different shards never share a queue.
	b.Net.Message(p, client, b.vmNode, 128)
	b.vmShardRes(id).Use(p, b.Tun.VMService)
	a, err := b.VM.AssignVersion(id, kind, off, size, nonce, 0)
	if err != nil {
		return 0, err
	}

	// Phase 2b: metadata weaving over the real tree code.
	hist := &blob.History{}
	if err := hist.Extend(a.Descs); err != nil {
		return 0, err
	}
	refs := make([]mdtree.BlockRef, nBlocks)
	for i := range refs {
		ln := m.BlockSize
		if i == nBlocks-1 {
			if rem := size - int64(nBlocks-1)*m.BlockSize; rem > 0 {
				ln = rem
			}
		}
		refs[i] = mdtree.BlockRef{
			Key:       blob.BlockKey{Blob: id, Nonce: nonce, Seq: uint32(i)},
			Providers: targets.Block(i),
			Len:       ln,
		}
		b.blocks[refs[i].Key.String()] = true // fresh writes land hot
	}
	if _, err := mdtree.Build(context.Background(), b.Store, m, hist, a.Version, refs); err != nil {
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

// countingStore records the fetch pattern Resolve produces so reads can
// be billed: each GetBatch is one frontier level (one batched round-trip
// per provider).
type countingStore struct {
	*mdtree.MemStore
	levels [][]string
}

func (c *countingStore) GetBatch(ctx context.Context, ids []mdtree.NodeID) (map[mdtree.NodeID]mdtree.Node, error) {
	keys := make([]string, len(ids))
	for i, id := range ids {
		keys[i] = id.Key()
	}
	c.levels = append(c.levels, keys)
	return c.MemStore.GetBatch(ctx, ids)
}

// Read fetches [off, off+size) of the latest published version from
// node client, returning the bytes-equivalent amount read.
func (b *BSFS) Read(p *sim.Proc, client simnet.NodeID, id blob.ID, off, size int64) (int64, error) {
	m, err := b.VM.GetMeta(id)
	if err != nil {
		return 0, err
	}
	// Latest-version query.
	b.Net.Message(p, client, b.vmNode, 64)
	v, vsize, err := b.VM.Latest(id)
	if err != nil {
		return 0, err
	}
	if v == blob.NoVersion {
		return 0, nil
	}
	cs := &countingStore{MemStore: b.Store}
	extents, err := mdtree.Resolve(context.Background(), cs, m, v, vsize, blob.Range{Off: off, Len: size})
	if err != nil {
		return 0, err
	}
	// Tree descent: one batched multi-get round per frontier level.
	// Levels are inherently sequential (a level's children are unknown
	// until it is fetched), but within a level all providers answer in
	// parallel.
	for _, level := range cs.levels {
		b.chargeMetaOps(p, client, level)
	}
	// Block fetches. A replica co-located with the reading client is
	// served locally (Map/Reduce schedules tasks for exactly that);
	// otherwise rotate across the live replica set so concurrent readers
	// spread load instead of piling onto the first replica (the
	// cooperative kernel makes the shared rotation cursor safe). Dead
	// providers are skipped; once the original replica set is exhausted
	// the location overlay supplies repair copies — the same fall-through
	// order as the real client's fetchExtentInto.
	total := int64(0)
	var lost *mdtree.Extent
	parallel(p, len(extents), b.Tun.PipelineDepth, func(cp *sim.Proc, i int) {
		e := extents[i]
		if !e.HasData || len(e.Block.Providers) == 0 {
			return
		}
		addrs := b.liveReplicas(e.Block)
		if len(addrs) == 0 {
			if lost == nil {
				lost = &extents[i]
			}
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
		rate := b.readCap()
		if key := e.Block.Key.String(); b.demoted[key] {
			// Cold hit: the block streams at the slow tier's media rate
			// and pays the promotion setup once; it is hot afterwards.
			delete(b.demoted, key)
			b.PromotedBlocks++
			if b.Tun.ColdPenalty > 0 {
				cp.Sleep(b.Tun.ColdPenalty)
			}
			if b.Tun.ColdReadBps > 0 && b.Tun.ColdReadBps < rate {
				rate = b.Tun.ColdReadBps
			}
		}
		b.Net.TransferDisk(cp, src, client, e.Len, rate, src)
	})
	if lost != nil {
		return 0, fmt.Errorf("simstore: all replicas of block %s dead", lost.Block.Key)
	}
	for _, e := range extents {
		total += e.Len
	}
	return total, nil
}

// liveReplicas returns the replica addresses a read may be served
// from, mirroring the real client's fall-through order exactly: live
// originals while any exist, overlay relocations only once every
// original replica is dead (core.fetchExtentInto consults the overlay
// strictly as a last resort, so the sim must not credit repair copies
// with extra read capacity while originals still serve).
func (b *BSFS) liveReplicas(ref mdtree.BlockRef) []string {
	out := make([]string, 0, len(ref.Providers))
	for _, a := range ref.Providers {
		if !b.dead[a] {
			out = append(out, a)
		}
	}
	if len(out) > 0 {
		return out
	}
	for _, a := range b.overlay[ref.Key.String()] {
		if !b.dead[a] {
			out = append(out, a)
		}
	}
	return out
}

// liveCopies returns every live holder of the block — originals and
// overlay relocations together. The repair scanner counts redundancy
// with this (a relocated copy satisfies the replication target even
// while originals serve reads).
func (b *BSFS) liveCopies(ref mdtree.BlockRef) []string {
	out := make([]string, 0, len(ref.Providers))
	for _, a := range ref.Providers {
		if !b.dead[a] {
			out = append(out, a)
		}
	}
	for _, a := range b.overlay[ref.Key.String()] {
		if !b.dead[a] {
			out = append(out, a)
		}
	}
	return out
}

// KillProvider crashes a data provider: it stops serving reads and
// repair sources, and leaves the allocation pool.
func (b *BSFS) KillProvider(addr string) {
	b.dead[addr] = true
	b.PM.MarkDead(addr)
}

// Repair runs one scan-and-repair pass from node runner: it walks every
// blob's published versions through the real metadata code, diffs each
// block's replica set (originals + overlay) against live membership,
// and pushes each missing replica provider-to-provider over the fabric
// with `concurrency` transfers in flight — the simulated twin of
// repair.Engine.RunOnce. It returns the number of replicas created.
func (b *BSFS) Repair(p *sim.Proc, concurrency int) (int, error) {
	type job struct {
		ref mdtree.BlockRef
		src string
		dst []string
	}
	seen := make(map[string]bool)
	var jobs []job
	load := make(map[string]int64)
	var liveAddrs []string
	for addr := range b.provNode {
		if !b.dead[addr] {
			liveAddrs = append(liveAddrs, addr)
		}
	}
	sort.Strings(liveAddrs)
	for _, id := range b.VM.Blobs() {
		m, err := b.VM.GetMeta(id)
		if err != nil {
			return 0, err
		}
		published, _, err := b.VM.Latest(id)
		if err != nil || published == blob.NoVersion {
			continue
		}
		oldest, err := b.VM.PrunedBelow(id)
		if err != nil {
			return 0, err
		}
		hist := &blob.History{}
		descs, err := b.VM.History(id, 0)
		if err != nil {
			return 0, err
		}
		if err := hist.Extend(descs); err != nil {
			return 0, err
		}
		for v := oldest; v <= published; v++ {
			d, ok := hist.Desc(v)
			if !ok || d.Aborted {
				continue
			}
			extents, err := mdtree.Resolve(context.Background(), b.Store, m, v, d.SizeAfter, blob.Range{Off: 0, Len: d.SizeAfter})
			if err != nil {
				return 0, err
			}
			for _, e := range extents {
				if !e.HasData || len(e.Block.Providers) == 0 || seen[e.Block.Key.String()] {
					continue
				}
				seen[e.Block.Key.String()] = true
				live := b.liveCopies(e.Block)
				missing := m.Replication - len(live)
				if missing <= 0 || len(live) == 0 {
					continue
				}
				holding := make(map[string]bool, len(live))
				for _, a := range live {
					holding[a] = true
				}
				var dst []string
				for len(dst) < missing {
					best := ""
					for _, a := range liveAddrs {
						if holding[a] {
							continue
						}
						if best == "" || load[a] < load[best] {
							best = a
						}
					}
					if best == "" {
						break
					}
					holding[best] = true
					load[best]++
					dst = append(dst, best)
				}
				if len(dst) > 0 {
					jobs = append(jobs, job{ref: e.Block, src: live[0], dst: dst})
				}
			}
		}
	}
	copies := 0
	parallel(p, len(jobs), concurrency, func(cp *sim.Proc, i int) {
		j := jobs[i]
		// The source provider pushes the block down a chain of targets,
		// exactly like the real mReplicate reusing the chained data
		// plane: every hop is a concurrently active provider-to-provider
		// flow billed on the fabric.
		env := cp.Env()
		done := env.NewEvent()
		live := len(j.dst)
		src := b.provNode[j.src]
		for _, addr := range j.dst {
			hopSrc, hopDst := src, b.provNode[addr]
			env.Go(func(hp *sim.Proc) {
				b.Net.TransferDisk(hp, hopSrc, hopDst, j.ref.Len, b.writeCap(), hopDst)
				live--
				if live == 0 {
					done.Fire()
				}
			})
			src = hopDst
		}
		done.Wait(cp)
		b.overlay[j.ref.Key.String()] = append(b.overlay[j.ref.Key.String()], j.dst...)
		copies += len(j.dst)
		b.RepairedBlocks++
		b.RepairedBytes += j.ref.Len * int64(len(j.dst))
	})
	return copies, nil
}

// DemoteAll moves every stored block to the cold tier (the simulated
// twin of store.Tiered.DemoteNow with an elapsed idle policy), and
// returns how many blocks went cold. Subsequent reads pay the cold-tier
// path once per block, then the block is hot again.
func (b *BSFS) DemoteAll() int {
	n := 0
	for k := range b.blocks {
		if !b.demoted[k] {
			b.demoted[k] = true
			n++
		}
	}
	return n
}

// Layout returns blocks-per-provider counts (Figure 3b).
func (b *BSFS) Layout() []int { return b.PM.Layout() }

// LocationsOf returns, for each block of the blob's latest version, the
// fabric node storing it (the simulated Map/Reduce scheduler's locality
// source).
func (b *BSFS) LocationsOf(id blob.ID) ([]simnet.NodeID, error) {
	m, err := b.VM.GetMeta(id)
	if err != nil {
		return nil, err
	}
	v, size, err := b.VM.Latest(id)
	if err != nil || v == blob.NoVersion {
		return nil, err
	}
	extents, err := mdtree.Resolve(context.Background(), b.Store, m, v, size, blob.Range{Off: 0, Len: size})
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
