// Package core implements the BlobSeer client — the paper's primary
// contribution seen from the application side. It orchestrates the
// versioning access interface of Section III-A over the distributed
// services: data providers (blocks), the provider manager (placement),
// metadata providers (segment trees in a DHT) and the version manager
// (version assignment and publication).
//
// The write path is the paper's two-phase protocol: data first, fully
// in parallel with all other writers; then version assignment (the only
// serialized step) followed by concurrent metadata weaving. Readers are
// completely decoupled: they only ever see published, immutable
// snapshots.
//
// Reads are the paper's too, one hop shorter: a pin brings the
// snapshot's write descriptors, each with its write's placement, so a
// read names every block's replicas from them and goes straight to the
// data providers — no metadata provider is asked.
//
// No sync.Mutex is held across a network wait: it would queue callers
// behind the slowest round trip.
package core

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/mdtree"
	"blobseer/internal/obs"
	"blobseer/internal/pmanager"
	"blobseer/internal/provider"
	"blobseer/internal/rpc"
	"blobseer/internal/stream"
	"blobseer/internal/util"
	"blobseer/internal/vmanager"
	"blobseer/internal/wire"
)

// ErrNotPublished is returned when a read names a version newer than
// the latest published snapshot. Readers must not observe in-flight
// writes (Section III-A5).
var ErrNotPublished = errors.New("core: version not published yet")

// putConcurrency bounds the block uploads in flight per write.
const putConcurrency = 8

// Config wires a Client to a deployment.
type Config struct {
	Pool *rpc.Pool
	// VMAddrs lists the version-manager shard endpoints in shard order
	// (addr k serves the blob IDs with vmanager.ShardOf(id, K) == k);
	// an unsharded control plane is the one-address case.
	VMAddrs   []string
	PMAddr    string       // provider manager endpoint
	MetaStore mdtree.Store // metadata DHT (mdtree.NewDHTStore) or test store: writes build trees there, GC deletes them
	Host      string       // this client's host name, for locality-aware placement

	// MetaCacheSize is ignored: a client reads no tree node, so it
	// keeps no node cache. It stays for the callers that still set it.
	MetaCacheSize int

	// Overlay is ignored: a repair amends the write's placement at the
	// version manager, which a reader asks once every replica its
	// snapshot names has failed. It stays for the callers that still
	// set it.
	Overlay LocationOverlay

	// Tracer, when non-nil, records client-side spans (read, readat,
	// resolve, write, ...) for sampled requests, and its sampling
	// policy decides which fresh requests start a trace. Nil keeps the
	// hot path trace-free; ops tagged via obs.WithRoot still propagate
	// their trace context to the services either way.
	Tracer *obs.Tracer
}

// LocationOverlay is the type of the ignored Config.Overlay.
type LocationOverlay interface {
	Get(ctx context.Context, key blob.BlockKey) ([]string, error)
	Remove(ctx context.Context, key blob.BlockKey) error
}

// Client is a BlobSeer client. It is safe for concurrent use; all
// state it keeps is cache (per-blob state, provider host map).
type Client struct {
	vm     *vmanager.Client
	pm     *pmanager.Client
	prov   *provider.Client
	meta   mdtree.Store
	host   string
	nonce  nonceSource
	readRR atomic.Uint64         // rotates the first replica tried per fetch
	reads  util.FreeList[*read]  // readInto's working sets, made as concurrent reads need them
	writes util.FreeList[*write] // doWrite's, likewise

	// The client's own registry; exporting it is the caller's choice.
	reg            *obs.Registry
	mResolve       *obs.Histogram  // block-index resolve latency per readInto
	chainFallbacks *obs.Counter    // blocks that fell back to one-hop puts
	appendMoves    *obs.Counter    // appends refused because the blob's end moved
	deadReports    *obs.Counter    // MarkDead feedback reports sent
	deadSuppressed *obs.Counter    // reports dropped by the per-provider rate limit
	streams        *stream.Metrics // shared by every reader and writer of the client
	tracer         *obs.Tracer     // nil unless Config.Tracer was set (nil is a no-op)

	mu       sync.Mutex
	blobs    map[blob.ID]*blobState // at most maxBlobStates, least recently used out
	useClock uint64
	hosts    map[string]string    // provider addr -> host
	reported map[string]time.Time // providers recently reported dead (rate limit)
}

// blobState is the client's cache of one blob. All of it can be fetched
// again; a write or a Snapshot holding a dropped state keeps working on it.
type blobState struct {
	used uint64    // Client.useClock at the last lookup
	meta blob.Meta // zero until fetched or created
	// hist is the writer's weaving hint, in-flight writes included;
	// owners the reader's, published versions only. Kept apart because an
	// in-flight descriptor can vanish (a restarted version manager reissues
	// an unlogged version number): a reader must not name a block from one.
	hist   blob.History
	owners mdtree.Owners
}

// maxBlobStates bounds Client.blobs: a long-lived BSFS client opens
// thousands of files, and a 100-version file is 6 KB of descriptors.
const maxBlobStates = 1024

// state returns id's cached state; a new one pushes the least recently
// used out of a full table.
func (c *Client) state(id blob.ID) *blobState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.blobs[id]
	if !ok {
		if len(c.blobs) >= maxBlobStates {
			var oldest blob.ID // 0 names no blob
			for k, s := range c.blobs {
				if o, ok := c.blobs[oldest]; !ok || s.used < o.used {
					oldest = k
				}
			}
			delete(c.blobs, oldest)
		}
		st = &blobState{}
		c.blobs[id] = st
	}
	c.useClock++
	st.used = c.useClock
	return st
}

// NewClient builds a client from cfg.
func NewClient(cfg Config) *Client {
	reg := obs.NewRegistry()
	c := &Client{
		vm:             vmanager.NewClient(cfg.Pool, cfg.VMAddrs...),
		pm:             pmanager.NewClient(cfg.Pool, cfg.PMAddr),
		prov:           provider.NewClient(cfg.Pool),
		meta:           cfg.MetaStore,
		host:           cfg.Host,
		reg:            reg,
		mResolve:       reg.Histogram("resolve_latency"),
		chainFallbacks: reg.Counter("chain_fallbacks"),
		appendMoves:    reg.Counter("append_moves"),
		deadReports:    reg.Counter("dead_reports"),
		deadSuppressed: reg.Counter("dead_reports_suppressed"),
		streams:        stream.NewMetrics(reg),
		tracer:         cfg.Tracer,
		nonce:          newNonceSource(),
		blobs:          make(map[blob.ID]*blobState),
		hosts:          make(map[string]string),
		reported:       make(map[string]time.Time),
	}
	return c
}

// Metrics exposes the client's registry: resolve latency,
// failure-feedback counters and the streaming layer's pipeline
// instruments. Registering it with an obs.Exporter is what makes a
// client metered.
func (c *Client) Metrics() *obs.Registry { return c.reg }

// ChainFallbacks reports how many blocks this client pushed to every
// replica itself, one one-hop chained put each, because their replica
// chain failed — the signal that a deployment is quietly paying R×B of
// client egress.
func (c *Client) ChainFallbacks() uint64 { return uint64(c.chainFallbacks.Value()) }

// DeadReports reports how many MarkDead feedback reports this client
// has sent to the provider manager (tests, observability).
func (c *Client) DeadReports() uint64 { return uint64(c.deadReports.Value()) }

// DeadReportsSuppressed reports how many MarkDead reports the
// per-provider rate limit swallowed. A high ratio of suppressed to sent
// reports means the client keeps hitting the same dead providers —
// stale metadata pointing at a departed node, or a repair plane that
// cannot keep up.
func (c *Client) DeadReportsSuppressed() uint64 { return uint64(c.deadSuppressed.Value()) }

// deadReportTTL rate-limits MarkDead feedback per provider: one report
// per TTL is plenty — the provider manager needs the bit once, and a
// revived provider re-registers or heartbeats its way back in.
const deadReportTTL = 30 * time.Second

// reportDead closes the failure-feedback loop: a provider the client
// could not reach at the transport level (connection refused/broken,
// never an application error) is reported to the provider manager so
// allocation stops handing it out before heartbeat expiry fires.
// Fire-and-forget on a background context — the caller's read or
// write must not block on control-plane bookkeeping.
func (c *Client) reportDead(addr string, err error) {
	if !rpc.TransportFailure(err) {
		return
	}
	c.mu.Lock()
	if at, ok := c.reported[addr]; ok && time.Since(at) < deadReportTTL {
		c.mu.Unlock()
		c.deadSuppressed.Inc()
		return
	}
	c.reported[addr] = time.Now()
	c.mu.Unlock()
	c.deadReports.Inc()
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c.pm.MarkDead(ctx, addr)
	}()
}

// MetaCacheStats returns zeroes: a client keeps no node cache (see
// Config.MetaCacheSize). It stays for the callers that still ask.
func (c *Client) MetaCacheStats() mdtree.CacheStats { return mdtree.CacheStats{} }

// nonceSource hands out write nonces unique across clients with
// overwhelming probability: a random 64-bit base plus a counter.
type nonceSource struct {
	base    uint64
	counter *atomic.Uint64
}

func newNonceSource() nonceSource {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		binary.BigEndian.PutUint64(b[:], uint64(time.Now().UnixNano()))
	}
	return nonceSource{base: binary.BigEndian.Uint64(b[:]), counter: new(atomic.Uint64)}
}

func (n nonceSource) next() uint64 { return n.base + n.counter.Add(1) }

// VM exposes the version-manager client (BSFS and tools need direct
// access for size/stat queries).
func (c *Client) VM() *vmanager.Client { return c.vm }

// Create allocates a new empty BLOB.
func (c *Client) Create(ctx context.Context, blockSize int64, replication int) (blob.Meta, error) {
	ctx, sp := c.tracer.Start(ctx, "create")
	m, err := c.vm.CreateBlob(ctx, blockSize, replication)
	sp.Finish(err)
	if err != nil {
		return blob.Meta{}, err
	}
	st := c.state(m.ID)
	c.mu.Lock()
	st.meta = m
	c.mu.Unlock()
	return m, nil
}

// Meta returns the blob's static configuration (cached).
func (c *Client) Meta(ctx context.Context, id blob.ID) (blob.Meta, error) {
	st := c.state(id)
	c.mu.Lock()
	m := st.meta
	c.mu.Unlock()
	if m.ID != 0 {
		return m, nil
	}
	ctx, sp := c.tracer.Start(ctx, "meta")
	h, err := c.vm.Latest(ctx, id)
	sp.Finish(err)
	if err != nil {
		return blob.Meta{}, err
	}
	c.mu.Lock()
	st.meta = h.Meta
	c.mu.Unlock()
	return h.Meta, nil
}

// Latest returns the newest published version and the blob size at it.
func (c *Client) Latest(ctx context.Context, id blob.ID) (blob.Version, int64, error) {
	enter(ctx, opPin)
	defer pprof.SetGoroutineLabels(ctx)
	ctx, sp := c.tracer.Start(ctx, "latest")
	h, err := c.vm.Latest(ctx, id)
	sp.Finish(err)
	return h.Published, h.Size, err
}

// write is one doWrite call's working set: its blocks' refs, the
// placement they name their replicas from (Allocate's vector) and the
// descriptors its assignment brings (Assign's). The client recycles it
// (Client.writes), as it does a read's, so a write allocates none of it
// once the client has run as many writes at once before. It never
// outlives its call: release clears it, or scribbles over it under
// wire.PoisonReleased.
type write struct {
	c     *Client
	refs  []mdtree.BlockRef
	addrs []string
	descs []blob.WriteDesc
}

// maxKeptWrite bounds each vector a recycled write keeps: a write of a
// thousand blocks, or a first write that brought a long history, should
// not pin its vectors in the client for ever.
const maxKeptWrite = 1024

// newWrite returns a working set for one write.
func (c *Client) newWrite() *write {
	w, ok := c.writes.Get()
	if !ok {
		w = &write{c: c}
	}
	return w
}

// release hands w back to its client.
func (w *write) release() {
	if wire.Poisoning() {
		for i := range w.refs {
			w.refs[i] = mdtree.BlockRef{Len: -1}
		}
		for i := range w.addrs {
			w.addrs[i] = "\xdb"
		}
		for i := range w.descs {
			w.descs[i] = blob.WriteDesc{Off: -1, Len: -1}
		}
	} else {
		clear(w.refs)
		clear(w.addrs)
		clear(w.descs)
	}
	w.refs, w.addrs, w.descs = keep(w.refs), keep(w.addrs), keep(w.descs)
	w.c.writes.Put(w)
}

// keep returns v emptied, or nil when it is too long to keep.
func keep[T any](v []T) []T {
	if cap(v) > maxKeptWrite {
		return nil
	}
	return v[:0]
}

// doWrite is the two-phase write protocol behind Blob.Write and
// Blob.Append; base is an append's (vmanager.State.Assign). The
// Assignment it returns has no Descs: they were its working set's.
func (c *Client) doWrite(ctx context.Context, m blob.Meta, kind blob.WriteKind, off int64, base blob.Version, data []byte) (_ vmanager.Assignment, err error) {
	var none vmanager.Assignment // what a failed write returns
	if len(data) == 0 {
		return none, fmt.Errorf("core: empty %s", kind)
	}
	op := "write"
	if kind == blob.KindAppend {
		op = "append"
	}
	ctx, sp := c.tracer.Start(ctx, op)
	defer func() { sp.Finish(err) }()
	id := m.ID
	if kind == blob.KindWrite && off%m.BlockSize != 0 {
		return none, fmt.Errorf("core: write offset %d not aligned to block size %d", off, m.BlockSize)
	}
	nBlocks := int(blob.Blocks(int64(len(data)), m.BlockSize))
	wr := c.newWrite()
	defer wr.release()

	// Phase 1a: allocate providers for every block of the patch.
	targets, err := c.pm.Allocate(ctx, nBlocks, m.Replication, c.host, wr.addrs)
	if err != nil {
		return none, fmt.Errorf("core: allocate providers: %w", err)
	}
	wr.addrs = targets.Addrs

	// Phase 1b: store all blocks, fully parallel with other writers.
	nonce := c.nonce.next()
	if cap(wr.refs) < nBlocks {
		wr.refs = make([]mdtree.BlockRef, nBlocks)
	}
	wr.refs = wr.refs[:nBlocks]
	refs := wr.refs
	for i := range refs {
		start := int64(i) * m.BlockSize
		key := blob.BlockKey{Blob: id, Nonce: nonce, Seq: uint32(i)}
		refs[i] = mdtree.BlockRef{Key: key, Providers: targets.Block(i), Len: min(m.BlockSize, int64(len(data))-start)}
	}
	if werr := c.putBlocks(ctx, data, m.BlockSize, refs); werr != nil {
		// The paper: "If, for some reason, writing of a block fails,
		// then the whole write fails." No version was assigned, so none
		// needs aborting — just GC the orphaned blocks.
		c.gcBlocks(id, nonce, targets.Addrs)
		return none, werr
	}

	// Phase 2a: version assignment — the single serialization point.
	st := c.state(id)
	c.mu.Lock()
	since := st.hist.Latest()
	c.mu.Unlock()
	a, err := c.vm.Assign(ctx, id, kind, off, int64(len(data)), nonce, since, base, wr.descs, targets.Addrs...)
	if err != nil {
		c.gcBlocks(id, nonce, targets.Addrs)
		return none, err
	}
	wr.descs, a.Descs = a.Descs, nil
	c.mu.Lock()
	err = st.hist.Extend(wr.descs)
	hist := st.hist.View() // read-only, stable during the metadata build
	c.mu.Unlock()
	if err != nil {
		// The version was assigned: leaving it dangling would stall
		// publication of every later version until the janitor notices.
		// Abort it so publication moves past it now.
		if aerr := c.vm.Abort(ctx, id, a.Version); aerr != nil {
			return none, fmt.Errorf("core: history cache failed (%v) and abort failed: %w", err, aerr)
		}
		c.gcBlocks(id, nonce, targets.Addrs)
		return none, fmt.Errorf("core: history cache: %w", err)
	}

	// Phase 2b: weave and store metadata, concurrently with all other
	// writers (including ones still working on lower versions).
	if _, err := mdtree.Build(ctx, c.meta, m, &hist, a.Version, refs); err != nil {
		// Abort, so that publication moves past the version and readers
		// name none of its blocks whatever nodes Build left, then GC our
		// blocks.
		if aerr := c.vm.Abort(ctx, id, a.Version); aerr != nil {
			return none, fmt.Errorf("core: metadata build failed (%v) and abort failed: %w", err, aerr)
		}
		c.gcBlocks(id, nonce, targets.Addrs)
		return none, fmt.Errorf("core: metadata build: %w", err)
	}

	// Phase 2c: report success; the VM publishes in version order.
	if err := c.vm.Commit(ctx, id, a.Version); err != nil {
		// Aborted (the janitor gave up on us): no reader names our
		// blocks, so free them. Any other error may hide a commit that
		// landed, whose blocks are read: keep them.
		if errors.Is(err, vmanager.ErrAborted) {
			c.gcBlocks(id, nonce, targets.Addrs)
		}
		return none, err
	}
	return a, nil
}

// putBlocks stores the blocks of a patch, putConcurrency in flight, each
// shipped once to the head of its replica chain, and returns the first
// error. A one-block write (every stream block, every append) is a
// plain call.
func (c *Client) putBlocks(ctx context.Context, data []byte, blockSize int64, refs []mdtree.BlockRef) error {
	if len(refs) == 1 {
		return c.putBlock(ctx, refs[0].Providers, refs[0].Key, data)
	}
	return util.Windowed(len(refs), putConcurrency, func(i int) error {
		start := int64(i) * blockSize
		return c.putBlock(ctx, refs[i].Providers, refs[i].Key, data[start:start+refs[i].Len])
	})
}

// putBlock stores one block on all its replicas through the streaming
// chain: the client ships it once to the chain head and providers
// forward frames hop to hop, so client egress is B bytes per block
// whatever the replication level. When any chain hop fails mid-write (a
// dead downstream hop, a timeout) the block falls back to one one-hop
// put per replica. Each is a transfer of its own, which the failed
// chain's tombstones do not refuse and which supersedes whatever is
// left of the chain's upload on its replica; a block's bytes never
// change, so replicas the chain did reach are simply overwritten. The
// write only fails if a replica is truly down.
func (c *Client) putBlock(ctx context.Context, replicas []string, key blob.BlockKey, chunk []byte) error {
	chain := c.chainOrder(ctx, replicas)
	err := c.prov.PutChained(ctx, chain, key, chunk, provider.DefaultFrameSize)
	if err == nil {
		return nil
	}
	if ctx.Err() != nil {
		// The caller's context died, not the chain: re-sending R full
		// copies directly would be a doomed egress burst (and would
		// misreport chain health).
		return err
	}
	// An unreachable chain head is a dead provider; a coded chain
	// failure only means some hop broke (the head answered).
	c.reportDead(chain[0], err)
	c.chainFallbacks.Inc()
	return c.putBlockDirect(ctx, replicas, key, chunk)
}

// putBlockDirect is putBlock's fallback: it pushes one block to each of
// its replicas in parallel, a chain of one each. How many blocks fall
// back at once is bounded by putBlocks' window, as chained puts are.
func (c *Client) putBlockDirect(ctx context.Context, replicas []string, key blob.BlockKey, chunk []byte) error {
	return util.Windowed(len(replicas), len(replicas), func(i int) error {
		if err := c.prov.PutChained(ctx, replicas[i:i+1], key, chunk, provider.DefaultFrameSize); err != nil {
			c.reportDead(replicas[i], err)
			return fmt.Errorf("core: store block %s on %s: %w", key, replicas[i], err)
		}
		return nil
	})
}

// localReplicaIndex returns the index of the replica co-hosted with the
// client, or -1 when there is none (or the client has no host label).
func (c *Client) localReplicaIndex(ctx context.Context, replicas []string) int {
	if c.host == "" || len(replicas) < 2 {
		return -1
	}
	for i, h := range c.hostsFor(ctx, replicas) {
		if h == c.host {
			return i
		}
	}
	return -1
}

// chainOrder orders a block's replica set for chain transfer: the
// provider co-hosted with the client (if any) leads, so the first hop
// stays on the local machine and the block leaves the client NIC at
// most once.
func (c *Client) chainOrder(ctx context.Context, replicas []string) []string {
	i := c.localReplicaIndex(ctx, replicas)
	if i <= 0 {
		return replicas
	}
	ordered := make([]string, 0, len(replicas))
	ordered = append(ordered, replicas[i])
	ordered = append(ordered, replicas[:i]...)
	ordered = append(ordered, replicas[i+1:]...)
	return ordered
}

// gcBlocks best-effort deletes every block a failed write stored on the
// providers it was placed on.
func (c *Client) gcBlocks(id blob.ID, nonce uint64, addrs []string) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	seen := map[string]bool{}
	for _, addr := range addrs {
		if !seen[addr] {
			seen[addr] = true
			_, _ = c.prov.DeleteWrite(ctx, addr, id, nonce)
		}
	}
}

// read is one readInto or Locations call's working set: the extents its
// range resolves to, the fetches that fill them, their ranges and the
// calls those went out in. The client recycles it (Client.reads), so a
// read allocates none of it once the client has run as many reads at
// once before. It never outlives its call: release clears it, or
// scribbles over it under wire.PoisonReleased.
type read struct {
	c       *Client
	extents mdtree.Scratch
	fetches []fetch               // sorted by first replica: a run per provider
	ranges  []provider.Range      // ranges[i] is fetches[i]'s
	calls   []provider.PendingGet // in fetch order, each over a run of ranges
	// The first room of ranges and calls: a record that only ever read
	// one block (a stream's block fetches) allocates neither.
	ranges0 [1]provider.Range
	calls0  [1]provider.PendingGet
}

// newRead returns a working set for one call.
func (c *Client) newRead() *read {
	rd, ok := c.reads.Get()
	if !ok {
		rd = &read{c: c}
		rd.ranges, rd.calls = rd.ranges0[:0], rd.calls0[:0]
	}
	return rd
}

// release hands rd back to its client.
func (rd *read) release() {
	rd.extents.Reset()
	if wire.Poisoning() {
		for i := range rd.fetches {
			rd.fetches[i] = fetch{first: -1}
		}
		for i := range rd.ranges {
			rd.ranges[i] = provider.Range{N: -1}
		}
	} else {
		clear(rd.fetches)
		clear(rd.ranges)
	}
	clear(rd.calls)
	rd.fetches, rd.ranges, rd.calls = rd.fetches[:0], rd.ranges[:0], rd.calls[:0]
	rd.c.reads.Put(rd)
}

// readInto resolves [off, off+len(dst)) of the snapshot into extents and
// fetches each extent's bytes directly into the matching subslice of
// dst — the zero-copy core of Snapshot.ReadAt: no whole-range
// intermediate buffer exists at any point. The extents whose first
// replica is the same provider ride one call (one round trip per
// provider, not per block). The calling goroutine sends every provider's
// call, then waits on each in turn, so the providers work in parallel
// and the read starts no goroutine; a call that failed fails over its
// own extents, and the read returns only once no call it started can
// still write into dst. Holes and the zero tails of short blocks are
// cleared explicitly (dst may be a reused buffer holding stale bytes).
// The requested range must lie inside the snapshot.
func (s *Snapshot) readInto(ctx context.Context, off int64, dst []byte) error {
	c := s.b.c
	rd := c.newRead()
	defer rd.release()
	t0 := time.Now()
	extents, err := s.owners.Resolve(s.b.meta, s.version, s.size, blob.Range{Off: off, Len: int64(len(dst))}, &rd.extents)
	c.mResolve.ObserveSince(t0)
	if err != nil {
		return err
	}
	fs := c.fetches(ctx, rd.fetches[:0], extents, off, dst)
	rd.fetches = fs
	// Stable, so a provider serves its ranges in file order.
	slices.SortStableFunc(fs, func(a, b fetch) int { return strings.Compare(a.addr(), b.addr()) })
	rs := rd.ranges[:0]
	for _, f := range fs {
		rs = append(rs, provider.Range{Key: f.e.Block.Key, Off: f.e.DataOff, Dst: f.dst})
	}
	rd.ranges = rs
	for i := 0; i < len(fs); {
		j := runEnd(fs, i)
		rd.calls = c.prov.StartRanges(ctx, fs[i].addr(), rs[i:j], rd.calls)
		i = j
	}
	lo := 0
	for _, call := range rd.calls {
		hi := lo + call.Len()
		if werr := call.Wait(); err == nil {
			err = s.settle(ctx, fs[lo:hi], rs[lo:hi], werr)
		}
		lo = hi
	}
	return err
}

// runEnd returns where the run of fetches that starts at fs[i], all
// trying the same replica first, ends.
func runEnd(fs []fetch, i int) int {
	j := i + 1
	for j < len(fs) && fs[j].addr() == fs[i].addr() {
		j++
	}
	return j
}

// fetch is one data extent of a read: where its bytes go, and the
// replica tried first.
type fetch struct {
	e     *mdtree.Extent
	dst   []byte
	first int // index into e.Block.Providers
}

func (f fetch) addr() string { return f.e.Block.Providers[f.first] }

// fetches appends to fs the data extents of a read of dst at off and
// clears dst where the extents are holes.
func (c *Client) fetches(ctx context.Context, fs []fetch, extents []mdtree.Extent, off int64, dst []byte) []fetch {
	for i := range extents {
		e := &extents[i]
		sub := dst[e.FileOff-off : e.FileOff-off+e.Len]
		if !e.HasData {
			clear(sub) // a hole reads as zeros
			continue
		}
		fs = append(fs, fetch{e: e, dst: sub, first: c.firstReplica(ctx, e.Block.Providers)})
	}
	return fs
}

// firstReplica picks the replica a read of a block tries first: the one
// co-hosted with the client (Map/Reduce schedules tasks onto replica
// hosts expecting a local read), otherwise the next in a rotation, so
// that concurrent readers spread load across the replica set instead of
// serializing on the first address.
func (c *Client) firstReplica(ctx context.Context, replicas []string) int {
	if i := c.localReplicaIndex(ctx, replicas); i >= 0 {
		return i
	}
	if n := len(replicas); n > 1 {
		return int(c.readRR.Add(1) % uint64(n))
	}
	return 0
}

// settle completes fetches that one call to their first replica read
// into rs, or failed to with err: then each extent fails over on its own.
func (s *Snapshot) settle(ctx context.Context, fs []fetch, rs []provider.Range, err error) error {
	c := s.b.c
	if err != nil {
		c.reportDead(fs[0].addr(), err)
	}
	for i, f := range fs {
		n := rs[i].N
		if err != nil {
			// A provider that answered may hold this block even though it
			// lacks another of the call's: ask it again, alone.
			askFirst := len(fs) > 1 && !rpc.TransportFailure(err)
			var ferr error
			if n, ferr = s.fetchExtentInto(ctx, f, err, askFirst); ferr != nil {
				return ferr
			}
		}
		clear(f.dst[n:]) // bytes past the stored block length read as zeros
	}
	return nil
}

// fetchExtentInto is one extent's failover after the call to its first
// replica failed with firstErr: it reads the extent into f.dst from the
// other replicas in rotation order (then the first one again, when
// askFirst). Once every replica the snapshot names has failed, a repair
// may have moved the block since the snapshot was pinned: the version
// manager is asked once where the block lives now, the client's block
// index keeps the answer, and the replicas not tried yet are. It
// returns the byte count stored (a block shorter than the request
// leaves a zero tail for the caller to clear). Providers that failed at
// the transport level are reported to the provider manager.
func (s *Snapshot) fetchExtentInto(ctx context.Context, f fetch, firstErr error, askFirst bool) (int, error) {
	c, e, dst := s.b.c, f.e, f.dst
	n := len(e.Block.Providers)
	tries := n - 1
	if askFirst {
		tries = n
	}
	lastErr := firstErr
	for i := 1; i <= tries; i++ {
		addr := e.Block.Providers[(f.first+i)%n]
		got, err := c.prov.GetInto(ctx, addr, e.Block.Key, e.DataOff, dst)
		if err == nil {
			return got, nil
		}
		c.reportDead(addr, err)
		lastErr = err
	}
	if now, err := c.vm.Replicas(ctx, e.Block.Key); err == nil {
		s.owners.Relocate(s.b.meta, e.Block.Key, now)
		for _, addr := range now {
			if slices.Contains(e.Block.Providers, addr) {
				continue
			}
			got, err := c.prov.GetInto(ctx, addr, e.Block.Key, e.DataOff, dst)
			if err == nil {
				return got, nil
			}
			c.reportDead(addr, err)
			lastErr = err
		}
	}
	return 0, fmt.Errorf("core: all replicas failed for %s: %w", e.Block.Key, lastErr)
}

// Location describes where one piece of a blob range physically lives —
// the primitive BSFS maps Hadoop's getFileBlockLocations onto
// (Section IV-C).
type Location struct {
	Off       int64
	Len       int64
	Providers []string // provider RPC addresses (replicas)
	Hosts     []string // physical hosts of those providers
}

// hostsFor maps provider addresses to hosts, refreshing the cached
// membership once on a miss.
func (c *Client) hostsFor(ctx context.Context, addrs []string) []string {
	c.mu.Lock()
	missing := false
	for _, a := range addrs {
		if _, ok := c.hosts[a]; !ok {
			missing = true
			break
		}
	}
	c.mu.Unlock()
	if missing {
		if infos, err := c.pm.List(ctx); err == nil {
			c.mu.Lock()
			for _, in := range infos {
				c.hosts[in.Addr] = in.Host
			}
			// Addresses the membership no longer lists (dead and
			// deregistered providers referenced by old block refs) are
			// cached as unknown, so they don't re-trigger a List
			// round-trip on every subsequent fetch.
			for _, a := range addrs {
				if _, ok := c.hosts[a]; !ok {
					c.hosts[a] = ""
				}
			}
			c.mu.Unlock()
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	hosts := make([]string, len(addrs))
	for i, a := range addrs {
		hosts[i] = c.hosts[a] // "" if unknown
	}
	return hosts
}
