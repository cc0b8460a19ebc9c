package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"blobseer"
	"blobseer/internal/blob"
	"blobseer/internal/dht"
	"blobseer/internal/mdtree"
	"blobseer/internal/provider"
	"blobseer/internal/rpc"
	"blobseer/internal/store"
	"blobseer/internal/vmanager"
	"blobseer/internal/wal"
	"blobseer/internal/wire"
)

// Probes (source P in the README's table): each calls one layer's
// public API in isolation, over loopback TCP where the layer has a
// network side, at the sizes the workloads use. They are the "before"
// a later change to that layer is measured against; none is gated.

const probeMB = 1 << 20

// probeIters are the repetitions behind each probe's median.
type probeIters struct {
	big, small int // calls moving 1 MB, and calls moving a few bytes
	builds     int // 4096-leaf tree builds
	walRecords int // per writer
	hdfsPairs  int
}

var (
	fullProbes  = probeIters{big: 48, small: 1500, builds: 3, walRecords: 150, hdfsPairs: 3}
	quickProbes = probeIters{big: 2, small: 8, builds: 1, walRecords: 4, hdfsPairs: 1}
)

// usEach times n calls of fn and returns each one's microseconds.
func usEach(n int, fn func(i int) error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(t0))/1e3)
	}
	return out, nil
}

// allocPerByte runs fn and returns bytes allocated, process-wide, per
// payload byte it says it moved.
func allocPerByte(fn func() (int64, error)) (float64, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	moved, err := fn()
	runtime.ReadMemStats(&b)
	if err != nil || moved == 0 {
		return 0, err
	}
	return float64(b.TotalAlloc-a.TotalAlloc) / float64(moved), nil
}

// servers owns the listeners a set of probes starts.
type servers struct {
	srvs []*rpc.Server
	pool *rpc.Pool
}

func newServers() *servers { return &servers{pool: rpc.NewPool(rpc.TCPDialer)} }

func (s *servers) serve(mux *rpc.Mux) (string, error) {
	lis, err := rpc.ListenTCP("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := rpc.NewServer(mux)
	s.srvs = append(s.srvs, srv)
	go srv.Serve(lis) // returns when Close closes the listener
	return lis.Addr().String(), nil
}

func (s *servers) stop() {
	s.pool.Close()
	for _, srv := range s.srvs {
		srv.Close()
	}
}

// runProbes runs every probe and files its metrics in out.
func runProbes(ctx context.Context, e *env, it probeIters, out *report) error {
	for _, p := range []struct {
		name string
		fn   func(context.Context, *env, probeIters, *report) error
	}{
		{"wire", probeWire}, {"rpc", probeRPC}, {"provider", probeProvider}, {"store", probeStore},
		{"vmanager", probeVManager}, {"wal", probeWAL}, {"mdtree", probeMDTree}, {"dht", probeDHT},
		{"hdfs", probeHDFS},
	} {
		if err := p.fn(ctx, e, it, out); err != nil {
			return fmt.Errorf("%s probe: %w", p.name, err)
		}
		settle()
	}
	return nil
}

// probeWire: WriteFrame + ReadFrame of a 1 MB body, there and back
// over one loopback connection.
func probeWire(_ context.Context, e *env, it probeIters, out *report) error {
	lis, err := rpc.ListenTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer lis.Close()
	echoed := make(chan error, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer c.Close()
		for {
			f, err := wire.ReadFrame(c, 0)
			if err != nil {
				echoed <- nil // the client hung up
				return
			}
			if err := wire.WriteFrame(c, f); err != nil {
				echoed <- err
				return
			}
		}
	}()
	c, err := rpc.TCPDialer(lis.Addr().String())
	if err != nil {
		return err
	}
	body := e.pay.base[:min(probeMB, len(e.pay.base))]
	var us []float64
	alloc, err := allocPerByte(func() (int64, error) {
		var err error
		us, err = usEach(it.big, func(int) error {
			if err := wire.WriteFrame(c, body); err != nil {
				return err
			}
			_, err := wire.ReadFrame(c, 0)
			return err
		})
		return int64(it.big) * 2 * int64(len(body)), err
	})
	c.Close()
	if eerr := <-echoed; err == nil {
		err = eerr
	}
	if err != nil {
		return err
	}
	out.set("wire.frame_roundtrip_us_1m", median(us))
	out.set("wire.frame_alloc_bytes_per_payload_byte", alloc)
	return nil
}

// probeRPC: Client.Call to an echo Mux through a counting net.Conn.
func probeRPC(ctx context.Context, e *env, it probeIters, out *report) error {
	s := newServers()
	defer s.stop()
	mux := rpc.NewMux()
	mux.Handle(1, func(_ context.Context, p []byte) ([]byte, error) { return p, nil })
	addr, err := s.serve(mux)
	if err != nil {
		return err
	}
	conn, err := rpc.TCPDialer(addr)
	if err != nil {
		return err
	}
	var cc connCount
	c := rpc.NewClient(&countedConn{Conn: conn, c: &cc})
	defer c.Close()

	small := e.pay.base[:64]
	us64, err := usEach(it.small, func(int) error { _, err := c.Call(ctx, 1, small); return err })
	if err != nil {
		return err
	}
	out.set("rpc.echo_us_64b", median(us64))
	out.set("rpc.conn_writes_per_frame", float64(cc.writes.Load())/float64(it.small))

	big := e.pay.base[:min(probeMB, len(e.pay.base))]
	var us1m []float64
	alloc, err := allocPerByte(func() (int64, error) {
		var err error
		us1m, err = usEach(it.big, func(int) error { _, err := c.Call(ctx, 1, big); return err })
		return int64(it.big) * 2 * int64(len(big)), err
	})
	if err != nil {
		return err
	}
	out.set("rpc.echo_us_1m", median(us1m))
	out.set("rpc.echo_alloc_bytes_per_payload_byte_1m", alloc)
	return nil
}

// probeProvider: provider.Client against one service (Put, Get) and a
// chain of three (PutChained), 1 MB blocks on mem stores. Eight keys
// are overwritten in turn, so the stores stay small.
func probeProvider(ctx context.Context, e *env, it probeIters, out *report) error {
	s := newServers()
	defer s.stop()
	var addrs []string
	for i := 0; i < 3; i++ {
		addr, err := s.serve(provider.NewService(store.NewMemStore(), provider.WithForwarder(s.pool)).Mux())
		if err != nil {
			return err
		}
		addrs = append(addrs, addr)
	}
	c := provider.NewClient(s.pool)
	data := e.pay.base[:min(probeMB, len(e.pay.base))]
	key := func(i int) blob.BlockKey { return blob.BlockKey{Blob: 1, Nonce: 7, Seq: uint32(i % 8)} }

	us, err := usEach(it.big, func(i int) error { return c.Put(ctx, addrs[0], key(i), data) })
	if err != nil {
		return err
	}
	out.set("provider.put_us_1m", median(us))
	us, err = usEach(it.big, func(i int) error { return c.PutChained(ctx, addrs, key(i), data, 0) })
	if err != nil {
		return err
	}
	out.set("provider.put_chained_us_1m_r3", median(us))
	alloc, err := allocPerByte(func() (int64, error) {
		var err error
		us, err = usEach(it.big, func(i int) error {
			got, err := c.Get(ctx, addrs[0], key(i), 0, int64(len(data)))
			if err == nil && len(got) != len(data) {
				err = fmt.Errorf("get returned %d bytes, want %d", len(got), len(data))
			}
			return err
		})
		return int64(it.big) * int64(len(data)), err
	})
	if err != nil {
		return err
	}
	out.set("provider.get_us_1m", median(us))
	out.set("provider.get_alloc_bytes_per_payload_byte", alloc)
	return nil
}

// probeStore: the two backends the workloads run on, called directly.
func probeStore(_ context.Context, e *env, it probeIters, out *report) error {
	val := e.pay.base[:min(probeMB, len(e.pay.base))]
	key := func(i int) string { return fmt.Sprintf("probe/%d", i%8) }
	getRange := func(st store.Store) func(int) error {
		return func(i int) error {
			got, err := st.GetRange(key(i), 0, int64(len(val)))
			if err == nil && len(got) != len(val) {
				err = fmt.Errorf("get_range returned %d bytes, want %d", len(got), len(val))
			}
			return err
		}
	}

	mem := store.NewMemStore()
	defer mem.Close()
	us, err := usEach(it.big, func(i int) error { return mem.Put(key(i), val) })
	if err != nil {
		return err
	}
	out.set("store.mem.put_us_1m", median(us))
	us, err = usEach(it.big, func(i int) error {
		w, err := mem.PutWriter(key(i))
		if err != nil {
			return err
		}
		if err := w.WriteAt(val, 0); err != nil {
			_ = w.Abort() // the write error is the one to report
			return err
		}
		return w.Commit()
	})
	if err != nil {
		return err
	}
	out.set("store.mem.put_writer_us_1m", median(us))
	if us, err = usEach(it.big, getRange(mem)); err != nil {
		return err
	}
	out.set("store.mem.get_range_us_1m", median(us))

	dir := filepath.Join(e.tmpDir, "probe-store")
	defer os.RemoveAll(dir)
	file, err := store.Open("file://" + dir)
	if err != nil {
		return err
	}
	defer file.Close()
	if us, err = usEach(it.big, func(i int) error { return file.Put(key(i), val) }); err != nil {
		return err
	}
	out.set("store.file.put_us_1m", median(us))
	if us, err = usEach(it.big, getRange(file)); err != nil {
		return err
	}
	out.set("store.file.get_range_us_1m", median(us))
	return nil
}

// probeVManager: AssignVersion + Commit of a 64 KB append with no
// data behind it — the serialized step of every write, alone.
func probeVManager(ctx context.Context, _ *env, it probeIters, out *report) error {
	s := newServers()
	defer s.stop()
	addr, err := s.serve(vmanager.NewService(vmanager.NewState(nil)).Mux())
	if err != nil {
		return err
	}
	c := vmanager.NewClient(s.pool, addr)
	m, err := c.CreateBlob(ctx, appendBlockSize, 1)
	if err != nil {
		return err
	}
	var since blob.Version
	us, err := usEach(it.small, func(i int) error {
		a, err := c.AssignVersion(ctx, m.ID, blob.KindAppend, 0, appendBlockSize, uint64(i+1), since)
		if err != nil {
			return err
		}
		since = a.Version
		return c.Commit(ctx, m.ID, a.Version)
	})
	if err != nil {
		return err
	}
	out.set("vmanager.assign_commit_us", median(us))
	return nil
}

// probeWAL: AppendSync from as many writers as the workloads have
// clients; group commit shows as records per fsync above one. No
// workload logs today (the control plane runs without DataDir), so
// this is the "before" for a later durable workload.
func probeWAL(_ context.Context, e *env, it probeIters, out *report) error {
	dir := filepath.Join(e.tmpDir, "probe-wal")
	defer os.RemoveAll(dir)
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	rec := e.pay.base[:128]
	var mu sync.Mutex
	var all []float64
	var first error
	e.eachClient(func(int) {
		us, err := usEach(it.walRecords, func(int) error { return log.AppendSync(rec) })
		mu.Lock()
		all = append(all, us...)
		if first == nil {
			first = err
		}
		mu.Unlock()
	})
	st := log.Status()
	if err := log.Close(); first == nil {
		first = err
	}
	if first != nil {
		return first
	}
	out.set("wal.append_sync_us", median(all))
	out.set("wal.records_per_fsync", float64(st.Records)/float64(max(1, st.Syncs)))
	return nil
}

// metaServers starts two metadata providers and returns a DHT client
// over them — the deployment default.
func metaServers(s *servers) (*dht.Client, error) {
	var addrs []string
	for i := 0; i < 2; i++ {
		addr, err := s.serve(dht.NewMetaService(store.NewMemStore()).Mux())
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, addr)
	}
	return dht.NewClient(dht.NewRing(addrs, dht.DefaultVnodes), s.pool, 1), nil
}

// probeMDTree: Build and Resolve on a 4096-leaf tree over the DHT
// store. Cold resolves go to the DHT for every level; warm ones hit a
// node cache that the same ranges filled.
func probeMDTree(ctx context.Context, e *env, it probeIters, out *report) error {
	s := newServers()
	defer s.stop()
	dc, err := metaServers(s)
	if err != nil {
		return err
	}
	st := mdtree.NewDHTStore(dc)
	const leaves = 4096
	size := int64(leaves) * chunkSize
	refs := make([]mdtree.BlockRef, leaves)
	hist := &blob.History{}
	if err := hist.Append(blob.WriteDesc{Version: 1, Len: size, SizeAfter: size, Kind: blob.KindWrite, Nonce: 1}); err != nil {
		return err
	}
	meta := func(i int) blob.Meta { return blob.Meta{ID: blob.ID(i + 1), BlockSize: chunkSize, Replication: 1} }
	us, err := usEach(it.builds, func(i int) error {
		for b := range refs {
			refs[b] = mdtree.BlockRef{Key: blob.BlockKey{Blob: meta(i).ID, Nonce: 1, Seq: uint32(b)}, Providers: []string{"p0"}, Len: chunkSize}
		}
		_, err := mdtree.Build(ctx, st, meta(i), hist, 1, refs)
		return err
	})
	if err != nil {
		return err
	}
	out.set("mdtree.build_us_per_block", median(us)/leaves)

	rng := seededRand(e.seed, 300)
	offs := make([]int64, it.small/4+1)
	for i := range offs {
		offs[i] = rng.Int64N(leaves-4) * chunkSize
	}
	resolve := func(st mdtree.Store) func(int) error {
		return func(i int) error {
			ext, err := mdtree.Resolve(ctx, st, meta(0), 1, size, blob.Range{Off: offs[i], Len: 4 * chunkSize})
			if err == nil && len(ext) != 4 {
				err = fmt.Errorf("resolve returned %d extents, want 4", len(ext))
			}
			return err
		}
	}
	if us, err = usEach(len(offs), resolve(st)); err != nil {
		return err
	}
	out.set("mdtree.resolve_us_cold", median(us))
	cached := mdtree.NewNodeCache(st, mdtree.DefaultCacheSize)
	if _, err = usEach(len(offs), resolve(cached)); err != nil {
		return err
	}
	if us, err = usEach(len(offs), resolve(cached)); err != nil {
		return err
	}
	out.set("mdtree.resolve_us_warm", median(us))
	return nil
}

// probeDHT: one 16-pair PutBatch and GetBatch — a tree level's worth.
func probeDHT(ctx context.Context, e *env, it probeIters, out *report) error {
	s := newServers()
	defer s.stop()
	dc, err := metaServers(s)
	if err != nil {
		return err
	}
	batch := func(i int) ([]wire.KV, []string) {
		kvs := make([]wire.KV, 16)
		keys := make([]string, 16)
		for j := range kvs {
			keys[j] = fmt.Sprintf("probe/%d/%d", i%64, j)
			kvs[j] = wire.KV{Key: keys[j], Val: e.pay.base[j*64 : (j+1)*64]}
		}
		return kvs, keys
	}
	us, err := usEach(it.small, func(i int) error { kvs, _ := batch(i); return dc.PutBatch(ctx, kvs) })
	if err != nil {
		return err
	}
	out.set("dht.put_batch_us_16", median(us))
	us, err = usEach(it.small, func(i int) error {
		_, keys := batch(i)
		got, err := dc.GetBatch(ctx, keys)
		if err == nil && len(got) != len(keys) {
			err = fmt.Errorf("get_batch returned %d values, want %d", len(got), len(keys))
		}
		return err
	})
	if err != nil {
		return err
	}
	out.set("dht.get_batch_us_16", median(us))
	return nil
}

// probeHDFS: seq_write's write phase against BSFS and against the
// HDFS-like baseline, in alternating pairs on identical deployments
// (4 stores, 1 MB blocks, R=1, mem). The paired ratio is the ROADMAP's
// "HDFS out-writes BSFS" question; it is diagnostic and never gated.
func probeHDFS(ctx context.Context, e *env, it probeIters, out *report) error {
	st, err := startStack(seqWrite{}.config(e, ""), nil)
	if err != nil {
		return err
	}
	defer st.stop()
	h, err := blobseer.StartHDFS(blobseer.HDFSConfig{BlockSize: seqBlockSize, Replication: 1, UseTCP: true})
	if err != nil {
		return err
	}
	defer h.Stop()
	m := newMeter(nil)
	bfs, err := st.newFSClients(e.clients)
	if err != nil {
		return err
	}
	var bs, hs []blobseer.FileSystem
	for c := 0; c < e.clients; c++ {
		hf, err := h.NewFS("")
		if err != nil {
			return err
		}
		bs, hs = append(bs, bfs[c].fs), append(hs, hf)
	}
	write := func(fss []blobseer.FileSystem, dir string, i int) (float64, error) {
		t0 := time.Now()
		mv := writeFiles(ctx, e, m, fss, dir, i)
		rate := mbPerS(mv.pBytes, time.Since(t0))
		return rate, fss[0].Delete(ctx, dir, true)
	}
	var hdfsMBs, ratios []float64
	for i := 0; i < it.hdfsPairs; i++ {
		dir := fmt.Sprintf("/pair/s%d", i)
		b, err := write(bs, dir, i)
		if err == nil {
			err = st.recycle()
		}
		if err != nil {
			return err
		}
		settle()
		hr, err := write(hs, dir, i)
		if err != nil {
			return err
		}
		for _, a := range h.DatanodeAddrs {
			if _, err := h.DatanodeService(a).Store().DeletePrefix(""); err != nil {
				return err
			}
		}
		settle()
		hdfsMBs = append(hdfsMBs, hr)
		ratios = append(ratios, b/hr)
	}
	out.attempted += m.attempted.Load()
	out.failed += m.failed.Load()
	out.set("hdfs.write_mb_s", median(hdfsMBs))
	out.set("hdfs.bsfs_write_ratio", median(ratios))
	return nil
}
