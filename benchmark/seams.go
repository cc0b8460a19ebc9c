package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/url"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"blobseer"
	"blobseer/internal/bsfs"
	"blobseer/internal/core"
	"blobseer/internal/dht"
	"blobseer/internal/mdtree"
	"blobseer/internal/namespace"
	"blobseer/internal/rpc"
	"blobseer/internal/store"
)

// A stack is one running deployment (real daemons on loopback TCP)
// plus the way clients of it are built. End-to-end passes use the
// deployment's own unmetered constructors. The traced pass builds the
// same client stack from public constructors with a decorator at each
// seam a layer exposes — rpc.Dialer, the store URL scheme, the
// metadata Store — and measures the layers from outside; the program's
// own tracer stays off (Config.TraceSample is zero).
type stack struct {
	cl      *blobseer.Cluster
	cfg     blobseer.Config
	tr      *tracedClients // nil for an end-to-end pass
	scratch string         // directory its stores may have used
}

type tracedClients struct {
	s    *seams
	pool *rpc.Pool
	meta mdtree.Store
}

// seamScheme is the store URL scheme the traced pass opens providers
// through: "benchseam:<inner url>".
const seamScheme = "benchseam"

// openSeams is what the registered scheme charges its time to. The
// store registry is process-wide, so this is too; one traced stack
// runs at a time.
var openSeams atomic.Pointer[seams]

func init() {
	store.Register(seamScheme, func(u *url.URL) (store.Store, error) {
		inner, err := store.Open(u.Opaque)
		if err != nil {
			return nil, err
		}
		return &timedStore{Store: inner, s: openSeams.Load()}, nil
	})
}

func startStack(cfg blobseer.Config, s *seams) (*stack, error) {
	cfg.UseTCP = true
	if s != nil {
		if cfg.StoreURL == "" {
			cfg.StoreURL = "mem://"
		}
		cfg.StoreURL = seamScheme + ":" + cfg.StoreURL
		openSeams.Store(s)
	}
	cl, err := blobseer.Start(cfg)
	if err != nil {
		return nil, fmt.Errorf("start deployment: %w", err)
	}
	st := &stack{cl: cl, cfg: cl.Cfg}
	if s != nil {
		s.route(cl)
		pool := rpc.NewPool(s.dial)
		ring := dht.NewRing(cl.MetaAddrs, dht.DefaultVnodes)
		st.tr = &tracedClients{
			s:    s,
			pool: pool,
			meta: &timedMeta{BatchStore: mdtree.NewDHTStore(dht.NewClient(ring, pool, cl.Cfg.MetaReplication)), s: s},
		}
	}
	return st, nil
}

func (st *stack) stop() {
	if st.tr != nil {
		st.tr.pool.Close()
	}
	st.cl.Stop()
}

// newCore returns a fresh BLOB client (cold caches, shared connections).
func (st *stack) newCore() *core.Client {
	if st.tr == nil {
		return st.cl.NewClient("")
	}
	return core.NewClient(core.Config{
		Pool:          st.tr.pool,
		VMAddrs:       st.cl.VMAddrs,
		PMAddr:        st.cl.PMAddr,
		MetaStore:     st.tr.meta,
		MetaCacheSize: st.cfg.MetaCacheSize,
		Overlay:       st.cl.Overlay,
	})
}

// newFS returns a fresh BSFS client, and the BLOB client under it when
// the harness built that itself (the deployment's own constructor does
// not expose it).
func (st *stack) newFS() (*bsfs.FS, *core.Client, error) {
	if st.tr == nil {
		f, err := st.cl.NewBSFS("")
		return f, nil, err
	}
	c := st.newCore()
	f, err := bsfs.New(bsfs.Config{
		Core:             c,
		NS:               namespace.NewClient(st.tr.pool, st.cl.NSAddr),
		BlockSize:        st.cfg.BlockSize,
		Replication:      st.cfg.Replication,
		ReadaheadBlocks:  st.cfg.ReadaheadBlocks,
		WriteBehindDepth: st.cfg.WriteBehindDepth,
	})
	return f, c, err
}

// recycle empties every data and metadata store. It runs in the
// untimed gap between slices so the resident set never reaches the
// size where first-touch memory in a VM turns expensive.
func (st *stack) recycle() error {
	for _, a := range st.cl.ProviderAddrs {
		if _, err := st.cl.ProviderService(a).Store().DeletePrefix(""); err != nil {
			return fmt.Errorf("recycle provider %s: %w", a, err)
		}
	}
	for _, a := range st.cl.MetaAddrs {
		if _, err := st.cl.MetaService(a).Store().DeletePrefix(""); err != nil {
			return fmt.Errorf("recycle metadata provider %s: %w", a, err)
		}
	}
	return nil
}

// layerCounters are the running totals the traced pass takes deltas
// of around each main phase: seam decorators (S) and counters the
// services already export (K).
type layerCounters [numCounters]int64

const (
	cConnTxBytes  = iota // S: bytes clients wrote to their conns, all services
	cConnWriteNs         // S: time inside those writes
	cStoreBusyNs         // S: time inside provider block-store data calls
	cMetaBusyNs          // S: time inside the metadata Store under the client
	cMetaReads           // S: Get and GetBatch calls reaching it
	cMetaNodesPut        // S: tree nodes written through it
	cVMOps               // K: version-manager RPCs served
	cProvBytesIn         // K: provider payload bytes in
	cProvBytesOut        // K: provider payload bytes out
	numCounters
)

func (a layerCounters) add(b layerCounters) layerCounters {
	for i := range a {
		a[i] += b[i]
	}
	return a
}

func (a layerCounters) sub(b layerCounters) layerCounters {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

// counters reads the totals; an end-to-end pass reads nothing.
func (st *stack) counters() layerCounters {
	var lc layerCounters
	if st.tr == nil {
		return lc
	}
	s := st.tr.s
	lc[cStoreBusyNs] = s.storeBusyNs.Load()
	lc[cMetaBusyNs] = s.metaBusyNs.Load()
	lc[cMetaReads] = s.metaReads.Load()
	lc[cMetaNodesPut] = s.metaNodesPut.Load()
	lc[cVMOps] = st.cl.VMService().Ops().Total()
	for _, c := range s.conns {
		lc[cConnTxBytes] += c.bytes.Load()
		lc[cConnWriteNs] += c.ns.Load()
	}
	for _, a := range st.cl.ProviderAddrs {
		snap := st.cl.ProviderService(a).Metrics().Snapshot()
		lc[cProvBytesIn] += snap.Counters["bytes_in"]
		lc[cProvBytesOut] += snap.Counters["bytes_out"]
	}
	return lc
}

// seams holds every decorator's counters and the span recorder.
type seams struct {
	rec   *recorder
	conns map[string]*connCount // by destination service; fixed before the first dial
	svcOf map[string]string     // address -> service

	storeBusyNs                         atomic.Int64
	metaBusyNs, metaReads, metaNodesPut atomic.Int64
}

type connCount struct{ bytes, writes, ns atomic.Int64 }

func newSeams() *seams {
	s := &seams{rec: newRecorder(), conns: make(map[string]*connCount), svcOf: make(map[string]string)}
	for _, svc := range []string{"provider", "meta", "vmanager", "pmanager", "namespace"} {
		s.conns[svc] = &connCount{}
	}
	return s
}

// route records which service answers at each address.
func (s *seams) route(cl *blobseer.Cluster) {
	for _, a := range cl.ProviderAddrs {
		s.svcOf[a] = "provider"
	}
	for _, a := range cl.MetaAddrs {
		s.svcOf[a] = "meta"
	}
	for _, a := range cl.VMAddrs {
		s.svcOf[a] = "vmanager"
	}
	s.svcOf[cl.PMAddr] = "pmanager"
	s.svcOf[cl.NSAddr] = "namespace"
}

// dial is the rpc.Dialer seam: a TCP connection that counts and times
// what the client writes to it, charged to the destination service.
func (s *seams) dial(addr string) (net.Conn, error) {
	c, err := rpc.TCPDialer(addr)
	if err != nil {
		return nil, err
	}
	cc, ok := s.conns[s.svcOf[addr]]
	if !ok {
		return nil, fmt.Errorf("benchmark: dial %s: not an address of this deployment", addr)
	}
	return &countedConn{Conn: c, c: cc}, nil
}

type countedConn struct {
	net.Conn
	c *connCount
}

func (c *countedConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.c.ns.Add(int64(time.Since(t0)))
	c.c.bytes.Add(int64(n))
	c.c.writes.Add(1)
	return n, err
}

// timedStore is the store seam, server side: the provider's block
// store with its data calls timed. Store methods carry no context, so
// these spans have no parent; they place store work on the timeline.
type timedStore struct {
	store.Store
	s *seams
}

func (t *timedStore) time(name string) func() {
	_, sp := t.s.rec.start(context.Background(), name)
	t0 := time.Now()
	return func() {
		t.s.storeBusyNs.Add(int64(time.Since(t0)))
		sp.end()
	}
}

func (t *timedStore) Put(key string, val []byte) error {
	defer t.time("store.put")()
	return t.Store.Put(key, val)
}

func (t *timedStore) Get(key string) ([]byte, error) {
	defer t.time("store.get")()
	return t.Store.Get(key)
}

func (t *timedStore) GetRange(key string, off, length int64) ([]byte, error) {
	defer t.time("store.get_range")()
	return t.Store.GetRange(key, off, length)
}

func (t *timedStore) PutWriter(key string) (store.BlockWriter, error) {
	defer t.time("store.put_writer")()
	w, err := t.Store.PutWriter(key)
	if err != nil {
		return nil, err
	}
	return &timedWriter{BlockWriter: w, t: t}, nil
}

type timedWriter struct {
	store.BlockWriter
	t *timedStore
}

func (w *timedWriter) WriteAt(p []byte, off int64) error {
	defer w.t.time("store.write_at")()
	return w.BlockWriter.WriteAt(p, off)
}

func (w *timedWriter) Commit() error {
	defer w.t.time("store.commit")()
	return w.BlockWriter.Commit()
}

// timedMeta is the metadata seam: the DHT-backed tree store handed to
// core.NewClient as Config.MetaStore (under the client's node cache,
// so only misses and write-through reach it).
type timedMeta struct {
	mdtree.BatchStore
	s *seams
}

func (t *timedMeta) time(ctx context.Context, name string) (context.Context, func()) {
	ctx, sp := t.s.rec.start(ctx, name)
	t0 := time.Now()
	return ctx, func() {
		t.s.metaBusyNs.Add(int64(time.Since(t0)))
		sp.end()
	}
}

func (t *timedMeta) Put(ctx context.Context, n mdtree.Node) error {
	ctx, done := t.time(ctx, "mdtree.put")
	defer done()
	t.s.metaNodesPut.Add(1)
	return t.BatchStore.Put(ctx, n)
}

func (t *timedMeta) PutBatch(ctx context.Context, nodes []mdtree.Node) error {
	ctx, done := t.time(ctx, "mdtree.put_batch")
	defer done()
	t.s.metaNodesPut.Add(int64(len(nodes)))
	return t.BatchStore.PutBatch(ctx, nodes)
}

func (t *timedMeta) Get(ctx context.Context, id mdtree.NodeID) (mdtree.Node, error) {
	ctx, done := t.time(ctx, "mdtree.get")
	defer done()
	t.s.metaReads.Add(1)
	return t.BatchStore.Get(ctx, id)
}

func (t *timedMeta) GetBatch(ctx context.Context, ids []mdtree.NodeID) (map[mdtree.NodeID]mdtree.Node, error) {
	ctx, done := t.time(ctx, "mdtree.get_batch")
	defer done()
	t.s.metaReads.Add(1)
	return t.BatchStore.GetBatch(ctx, ids)
}

// Trace output and self time.

// writeTrace writes the spans as JSON lines.
func (r *recorder) writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.done {
		if err := enc.Encode(struct {
			ID     uint64 `json:"id"`
			Parent uint64 `json:"parent"`
			Op     uint64 `json:"op"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{s.ID, s.Parent, s.Op, s.Name, s.Start, s.End}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is one span name's totals: self time is a span's duration
// minus the part of it its child spans cover.
type selfTime struct {
	name        string
	count       int
	total, self time.Duration
}

func (r *recorder) selfTimes() []selfTime {
	kids := make(map[uint64][]span)
	for _, s := range r.done {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	byName := make(map[string]*selfTime)
	for _, s := range r.done {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		var covered, upTo int64 = 0, s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, upTo), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		st, ok := byName[s.Name]
		if !ok {
			st = &selfTime{name: s.Name}
			byName[s.Name] = st
		}
		st.count++
		st.total += time.Duration(s.End - s.Start)
		st.self += time.Duration(s.End - s.Start - covered)
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}
