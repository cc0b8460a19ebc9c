package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"blobseer"
	"blobseer/internal/bsfs"
	"blobseer/internal/core"
)

// The four workloads. All are closed loops — a Hadoop task waits for
// each reply — of env.clients goroutines in this one process, against
// real daemons on loopback TCP. Work per slice is fixed, and so is the
// number of slices in a run that fits under its wall-clock ceiling.
// Workloads
// touch the system only through the facade's BSFS, Blob and Snapshot
// handles, so a later change below those is free to move.

// sizes are the fixed work of one slice of each workload.
type sizes struct {
	fileBytes      int   // seq_write: one file
	filesPerClient int   // seq_write: files each client writes per slice
	readFileBytes  int64 // seq_read: the one shared input file
	appends        int   // append_shared: appends per client per slice
	mixedBlocks    int   // mixed_rw: blocks in the blob
	mixedWrites    int   // mixed_rw: block overwrites per slice, over all writers
	warmDiv        int   // a warm-up slice does 1/warmDiv of the per-slice work
}

var fullSizes = sizes{
	fileBytes:      16 << 20,
	filesPerClient: 8,
	readFileBytes:  256 << 20,
	appends:        1000,
	mixedBlocks:    512,
	mixedWrites:    1024,
	warmDiv:        8,
}

// quickSizes is the smoke test's 1/16 scale.
var quickSizes = sizes{
	fileBytes:      1 << 20,
	filesPerClient: 8,
	readFileBytes:  16 << 20,
	appends:        64,
	mixedBlocks:    32,
	mixedWrites:    64,
	warmDiv:        8,
}

const (
	seqBlockSize    = 1 << 20   // seq_write, seq_read: BSFS block
	appendBlockSize = chunkSize // append_shared: one append is one aligned block
	mixedBlockSize  = 128 << 10 // mixed_rw
	mixedReadSize   = 256 << 10 // mixed_rw: one ReadAt, two blocks' worth at an unaligned offset
	mixedCacheSize  = 256       // mixed_rw: client node cache, smaller than the 2*blocks-1 node tree

	// defaultNodeCache asks for the client node cache at its default
	// size, which is what bsfsctl and the daemons' other clients run
	// with; the embedded cluster's own zero value would turn it off.
	defaultNodeCache = -1

	verifyReadSize = 1 << 20 // append_shared: one read-back ReadAt
	populateSize   = 4 << 20 // mixed_rw: one populate Write
	latestEvery    = 64      // mixed_rw: reads between Blob.Latest calls
	readTag        = 0x5eed  // seq_read: the input file's stamp tag
)

// env is one run's inputs, all derived from the seed before any timing.
type env struct {
	seed    uint64
	clients int
	sz      sizes
	tmpDir  string // absolute; file:// stores live under it
	pay     *payload
	bufs    [][]byte // per client: a private copy of the payload base to stamp in place
}

func newEnv(seed uint64, clients int, sz sizes, tmpDir string) *env {
	e := &env{seed: seed, clients: clients, sz: sz, tmpDir: tmpDir, pay: newPayload(seed, sz.fileBytes)}
	for c := 0; c < clients; c++ {
		e.bufs = append(e.bufs, e.pay.clone())
	}
	return e
}

// warm returns e at warm-up scale.
func (e *env) warm() *env {
	w := *e
	w.sz.filesPerClient = max(1, e.sz.filesPerClient/e.sz.warmDiv)
	w.sz.appends = max(1, e.sz.appends/e.sz.warmDiv)
	w.sz.mixedBlocks = max(2*mixedReadSize/mixedBlockSize, e.sz.mixedBlocks/e.sz.warmDiv)
	w.sz.mixedWrites = max(1, e.sz.mixedWrites/e.sz.warmDiv)
	return &w
}

// eachClient runs fn once per client goroutine and waits for all.
func (e *env) eachClient(fn func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < e.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}

type workload interface {
	// config is the deployment the workload runs on; dir is a fresh
	// scratch directory for stores that need one.
	config(e *env, dir string) blobseer.Config
	// setup pre-populates and warms a started deployment. Together with
	// the deployment start it is what setup_s times.
	setup(ctx context.Context, e *env, st *stack, m *meter) error
	// slice runs slice i: fixed work, self-checked, storage recycled.
	slice(ctx context.Context, e *env, st *stack, m *meter, i int) error
	// unit names the client operation per-op ratios are per.
	unit() string
	// writes says whether slices change what the deployment stores.
	writes() bool
	// slices is how many slices a full-length run measures: 21 to 25 s
	// of the nominal 28 on the 2-core box this was sized on, set-ups,
	// warm-ups and process starts included.
	slices() int
}

var workloads = map[string]workload{
	"seq_write":     seqWrite{},
	"seq_read":      seqRead{},
	"append_shared": appendShared{},
	"mixed_rw":      mixedRW{},
}

var workloadOrder = []string{"seq_write", "seq_read", "append_shared", "mixed_rw"}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }

// fsClient is one BSFS client; core is the BLOB client under it when
// the harness built the stack itself (traced pass), else nil.
type fsClient struct {
	fs   blobseer.FileSystem
	core *core.Client
}

func (st *stack) newFSClients(n int) ([]fsClient, error) {
	out := make([]fsClient, n)
	for i := range out {
		f, c, err := st.newFS()
		if err != nil {
			return nil, fmt.Errorf("new BSFS client: %w", err)
		}
		out[i] = fsClient{fs: f, core: c}
	}
	return out, nil
}

func coreStats(cs ...*core.Client) clientStats {
	var out clientStats
	for _, c := range cs {
		if c == nil {
			continue
		}
		mc := c.MetaCacheStats()
		out.cacheHits += mc.Hits
		out.cacheMisses += mc.Misses
		out.chainFallbacks += c.ChainFallbacks()
	}
	return out
}

func fsStats(cs []fsClient) clientStats {
	cores := make([]*core.Client, len(cs))
	for i, c := range cs {
		cores[i] = c.core
	}
	return coreStats(cores...)
}

// ---- seq_write: Fig 3a / RandomTextWriter shape ----
//
// Each client streams its own files through FS.Create, 64 KB Writes,
// Close. Bytes dominate: client -> stream -> rpc/wire -> provider ->
// store does nearly all the work, with one version published per MB.
// Every file is then read back and verified chunk by chunk; that
// read-back is the workload's secondary activity.

type seqWrite struct{}

func (seqWrite) writes() bool { return true }

func (seqWrite) slices() int { return 20 }

func (seqWrite) unit() string { return "file" }

func (seqWrite) config(*env, string) blobseer.Config {
	return blobseer.Config{BlockSize: seqBlockSize, Replication: 1, MetaCacheSize: defaultNodeCache}
}

func (w seqWrite) setup(ctx context.Context, e *env, st *stack, m *meter) error {
	return w.slice(ctx, e.warm(), st, m, -1)
}

func (seqWrite) slice(ctx context.Context, e *env, st *stack, m *meter, i int) error {
	cs, err := st.newFSClients(e.clients)
	if err != nil {
		return err
	}
	fss := make([]blobseer.FileSystem, len(cs))
	for c := range cs {
		fss[c] = cs[c].fs
	}
	dir := fmt.Sprintf("/w/s%d", i)
	m.beginSlice()
	m.timed(true, func() moved { return writeFiles(ctx, e, m, fss, dir, i) })
	m.timed(false, func() moved { return readFiles(ctx, e, m, fss, dir, i) })
	m.retire(fsStats(cs))
	if err := fss[0].Delete(ctx, dir, true); err != nil {
		return fmt.Errorf("seq_write: delete %s: %w", dir, err)
	}
	return st.recycle()
}

func fileTag(slice, client, file int) uint64 {
	return uint64(uint32(slice))<<32 | uint64(client)<<16 | uint64(file)
}

func filePath(dir string, client, file int) string {
	return fmt.Sprintf("%s/c%d/f%d", dir, client, file)
}

// writeFiles is the write phase, shared with the HDFS baseline probe:
// any FileSystem will do.
func writeFiles(ctx context.Context, e *env, m *meter, fss []blobseer.FileSystem, dir string, slice int) moved {
	var bytes, ops atomic.Int64
	chunks := e.pay.chunks()
	e.eachClient(func(c int) {
		buf := e.bufs[c]
		fileMs := make([]float64, 0, e.sz.filesPerClient)
		createMs := make([]float64, 0, e.sz.filesPerClient)
		callMs := make([]float64, 0, e.sz.filesPerClient*chunks)
		for f := 0; f < e.sz.filesPerClient; f++ {
			octx, sp := m.rec.start(ctx, "op.file_write")
			t0 := time.Now()
			err := func() error {
				w, err := fss[c].Create(octx, filePath(dir, c, f), true)
				if err != nil {
					return fmt.Errorf("create: %w", err)
				}
				createMs = append(createMs, msSince(t0))
				tag := fileTag(slice, c, f)
				for j := 0; j < chunks; j++ {
					chunk := buf[j*chunkSize : (j+1)*chunkSize]
					stamp(chunk, tag, uint64(j))
					tc := time.Now()
					if _, err := w.Write(chunk); err != nil {
						_ = w.Close() // the write error is the one to report
						return fmt.Errorf("write: %w", err)
					}
					callMs = append(callMs, msSince(tc))
				}
				if err := w.Close(); err != nil {
					return fmt.Errorf("close: %w", err)
				}
				return nil
			}()
			sp.end()
			if err != nil {
				err = fmt.Errorf("seq_write %s: %w", filePath(dir, c, f), err)
			} else {
				fileMs = append(fileMs, msSince(t0))
				bytes.Add(int64(len(buf)))
				ops.Add(1)
			}
			m.op(err)
		}
		m.sample("file_write", fileMs)
		m.sample("create", createMs)
		m.sample("write_call", callMs)
	})
	return moved{pBytes: bytes.Load(), ops: ops.Load()}
}

// readSeq reads chunks [from, to) of an open file in 64 KB calls and
// verifies each against the payload chunk it was cut from.
func readSeq(e *env, r io.Reader, chunk []byte, tag uint64, from, to int) (int64, error) {
	var n int64
	for j := from; j < to; j++ {
		if _, err := io.ReadFull(r, chunk); err != nil {
			return n, fmt.Errorf("read chunk %d: %w", j, err)
		}
		if err := e.pay.verifyChunk(chunk, tag, uint64(j), j%e.pay.chunks()); err != nil {
			return n, err
		}
		n += chunkSize
	}
	return n, nil
}

// readerDone folds a finished reader's readahead counters in.
func (m *meter) readerDone(r any) {
	if pr, ok := r.(bsfs.PipelinedReader); ok {
		s := pr.ReadStats()
		m.retire(clientStats{prefetched: int64(s.Prefetched), prefetchHits: int64(s.PrefetchHits)})
	}
}

// readFiles is seq_write's read-back: each client re-reads its own
// files sequentially and checks every chunk.
func readFiles(ctx context.Context, e *env, m *meter, fss []blobseer.FileSystem, dir string, slice int) moved {
	var bytes atomic.Int64
	e.eachClient(func(c int) {
		chunk := make([]byte, chunkSize)
		fileMs := make([]float64, 0, e.sz.filesPerClient)
		openMs := make([]float64, 0, e.sz.filesPerClient)
		for f := 0; f < e.sz.filesPerClient; f++ {
			octx, sp := m.rec.start(ctx, "op.file_read")
			t0 := time.Now()
			n, err := func() (int64, error) {
				r, err := fss[c].Open(octx, filePath(dir, c, f))
				if err != nil {
					return 0, fmt.Errorf("open: %w", err)
				}
				defer r.Close()
				openMs = append(openMs, msSince(t0))
				n, err := readSeq(e, r, chunk, fileTag(slice, c, f), 0, e.pay.chunks())
				m.readerDone(r)
				return n, err
			}()
			sp.end()
			bytes.Add(n)
			if err != nil {
				err = fmt.Errorf("seq_write read-back %s: %w", filePath(dir, c, f), err)
			} else {
				fileMs = append(fileMs, msSince(t0))
			}
			m.op(err)
		}
		m.sample("file_read", fileMs)
		m.sample("open", openMs)
	})
	return moved{sBytes: bytes.Load()}
}

// ---- seq_read: Fig 4 / grep shape ----
//
// Setup writes one file onto file:// stores (sync off, so reads come
// from the page cache). A slice is one collective pass: every client
// opens the file with a fresh BSFS client — a cold metadata cache, like
// a new map task — seeks to its 1/C partition and reads it in 64 KB
// calls with default readahead. provider Get -> store GetRange -> rpc
// -> stream readahead does the work; nothing is written. This is the
// only workload on file://. The same clients then read their
// partitions again, warm: that second pass is the workload's secondary
// activity, and its distance from the first is what cold metadata
// costs.

type seqRead struct{}

func (seqRead) writes() bool { return false }

func (seqRead) slices() int { return 24 }

func (seqRead) unit() string { return "partition" }

func (seqRead) config(_ *env, dir string) blobseer.Config {
	return blobseer.Config{BlockSize: seqBlockSize, Replication: 1, MetaCacheSize: defaultNodeCache, StoreURL: "file://" + dir + "/p{n}"}
}

const readPath = "/r/input"

// setup writes the input file: the payload base over and over, each
// chunk stamped with its index in the file.
func (seqRead) setup(ctx context.Context, e *env, st *stack, m *meter) error {
	err := func() error {
		f, _, err := st.newFS()
		if err != nil {
			return err
		}
		total := int(e.sz.readFileBytes / chunkSize)
		buf := e.bufs[0]
		t0 := time.Now()
		w, err := f.Create(ctx, readPath, true)
		if err != nil {
			return fmt.Errorf("create: %w", err)
		}
		m.sample("create", []float64{msSince(t0)})
		callMs := make([]float64, 0, total)
		for j := 0; j < total; j++ {
			b := j % e.pay.chunks()
			chunk := buf[b*chunkSize : (b+1)*chunkSize]
			stamp(chunk, readTag, uint64(j))
			tc := time.Now()
			if _, err := w.Write(chunk); err != nil {
				_ = w.Close() // the write error is the one to report
				return fmt.Errorf("write: %w", err)
			}
			callMs = append(callMs, msSince(tc))
		}
		m.sample("write_call", callMs)
		if err := w.Close(); err != nil {
			return fmt.Errorf("close: %w", err)
		}
		return nil
	}()
	if err != nil {
		err = fmt.Errorf("seq_read populate %s: %w", readPath, err)
	}
	m.op(err)
	return err
}

func (seqRead) slice(ctx context.Context, e *env, st *stack, m *meter, _ int) error {
	total := int(e.sz.readFileBytes / chunkSize)
	per := total / e.clients
	clients := make([]fsClient, e.clients)

	// pass reads every client's partition once; cold passes build their
	// client inside the clock, as a new task would.
	pass := func(cold bool) (bytes, ops int64) {
		var nb, no atomic.Int64
		e.eachClient(func(c int) {
			from, to := c*per, (c+1)*per
			if c == e.clients-1 {
				to = total
			}
			chunk := make([]byte, chunkSize)
			name := "warm_partition_read"
			if cold {
				name = "partition_read"
			}
			octx, sp := m.rec.start(ctx, "op."+name)
			t0 := time.Now()
			var openMs float64
			n, err := func() (int64, error) {
				if cold {
					f, cc, err := st.newFS()
					if err != nil {
						return 0, err
					}
					clients[c] = fsClient{fs: f, core: cc}
				}
				r, err := clients[c].fs.Open(octx, readPath)
				if err != nil {
					return 0, fmt.Errorf("open: %w", err)
				}
				defer r.Close()
				openMs = msSince(t0)
				if _, err := r.Seek(int64(from)*chunkSize, io.SeekStart); err != nil {
					return 0, fmt.Errorf("seek: %w", err)
				}
				n, err := readSeq(e, r, chunk, readTag, from, to)
				if cold {
					m.readerDone(r)
				}
				return n, err
			}()
			sp.end()
			nb.Add(n)
			if err != nil {
				err = fmt.Errorf("seq_read partition %d (cold %v): %w", c, cold, err)
			} else {
				no.Add(1)
				m.sample(name, []float64{msSince(t0)})
				if cold {
					m.sample("open", []float64{openMs})
				}
			}
			m.op(err)
		})
		return nb.Load(), no.Load()
	}

	m.beginSlice()
	m.timed(true, func() moved {
		bytes, ops := pass(true)
		return moved{pBytes: bytes, ops: ops}
	})
	for _, c := range clients {
		if c.fs == nil {
			return nil // a cold open failed and was counted; there is nothing to re-read with
		}
	}
	m.retire(fsStats(clients)) // the cold pass's cache counters, before the warm pass adds hits
	m.timed(false, func() moved {
		bytes, _ := pass(false)
		return moved{sBytes: bytes}
	})
	return nil
}

// ---- append_shared: Fig 5 shape ----
//
// All clients append one aligned 64 KB block at a time to one shared
// blob. At 64 KB per call the per-call control path dominates the
// bytes: version assignment and publish ordering, the metadata tree
// build, DHT batches and small-RPC overhead. A fresh blob per slice
// keeps the length trajectory identical across slices. Aligned appends
// only. The whole blob is then read back and every block's (client,
// seq) stamp must occur exactly once; that read-back is the workload's
// read side.

type appendShared struct{}

func (appendShared) writes() bool { return true }

func (appendShared) slices() int { return 24 }

func (appendShared) unit() string { return "append" }

func (appendShared) config(*env, string) blobseer.Config {
	return blobseer.Config{BlockSize: appendBlockSize, Replication: 1, MetaCacheSize: defaultNodeCache}
}

func (w appendShared) setup(ctx context.Context, e *env, st *stack, m *meter) error {
	return w.slice(ctx, e.warm(), st, m, -1)
}

func (appendShared) slice(ctx context.Context, e *env, st *stack, m *meter, i int) error {
	blobs, cores, err := openShared(ctx, e, st, appendBlockSize)
	if err != nil {
		return fmt.Errorf("append_shared: %w", err)
	}
	tag := uint64(uint32(i))
	m.beginSlice()
	m.timed(true, func() moved {
		var bytes, ops atomic.Int64
		e.eachClient(func(c int) {
			block := e.bufs[c][:chunkSize]
			lat := make([]float64, 0, e.sz.appends)
			for k := 0; k < e.sz.appends; k++ {
				stamp(block, tag, uint64(c)<<32|uint64(k))
				octx, sp := m.rec.start(ctx, "op.append")
				t0 := time.Now()
				_, err := blobs[c].Append(octx, block)
				sp.end()
				if err != nil {
					err = fmt.Errorf("append_shared: client %d append %d: %w", c, k, err)
				} else {
					lat = append(lat, msSince(t0))
					bytes.Add(chunkSize)
					ops.Add(1)
				}
				m.op(err)
			}
			m.sample("append", lat)
		})
		return moved{pBytes: bytes.Load(), ops: ops.Load()}
	})

	// Every append returned after its commit, so all are published.
	want := int64(e.clients) * int64(e.sz.appends) * chunkSize
	snap, err := blobs[0].Latest(ctx)
	if err == nil && snap.Size() != want {
		err = fmt.Errorf("final size %d, want %d (a gap or an overlap)", snap.Size(), want)
	}
	if err != nil {
		m.op(fmt.Errorf("append_shared: %w", err))
		return st.recycle()
	}
	seen := make([]atomic.Bool, e.clients*e.sz.appends)
	m.timed(false, func() moved {
		var bytes atomic.Int64
		blocks := int(want / chunkSize)
		per := (blocks + e.clients - 1) / e.clients
		e.eachClient(func(c int) {
			s, err := blobs[c].Latest(ctx)
			if err != nil {
				m.op(fmt.Errorf("append_shared: read-back latest: %w", err))
				return
			}
			buf := make([]byte, verifyReadSize)
			end := min((c+1)*per, blocks)
			for b := c * per; b < end; b += verifyReadSize / chunkSize {
				n := min(verifyReadSize/chunkSize, end-b)
				p := buf[:n*chunkSize]
				octx, sp := m.rec.start(ctx, "op.verify_read")
				_, err := s.ReadAtContext(octx, p, int64(b)*chunkSize)
				sp.end()
				if errors.Is(err, io.EOF) {
					err = nil // a read that ends exactly at the tail
				}
				for k := 0; err == nil && k < n; k++ {
					err = checkAppendBlock(e, p[k*chunkSize:(k+1)*chunkSize], tag, seen)
				}
				if err != nil {
					err = fmt.Errorf("append_shared: read-back block %d: %w", b, err)
				} else {
					bytes.Add(int64(len(p)))
				}
				m.op(err)
			}
		})
		return moved{sBytes: bytes.Load()}
	})
	for k := range seen {
		if !seen[k].Load() {
			m.op(fmt.Errorf("append_shared: append (client %d, seq %d) is missing from the blob", k/e.sz.appends, k%e.sz.appends))
			break
		}
	}
	m.retire(coreStats(cores...))
	return st.recycle()
}

// checkAppendBlock verifies one block of the shared blob and marks its
// (client, seq) seen; a second sighting is an overlap.
func checkAppendBlock(e *env, block []byte, tag uint64, seen []atomic.Bool) error {
	id := binary.LittleEndian.Uint64(block[8:])
	c, k := int(id>>32), int(uint32(id))
	if c >= e.clients || k >= e.sz.appends {
		return fmt.Errorf("stamp names append (client %d, seq %d), which was never issued", c, k)
	}
	if err := e.pay.verifyChunk(block, tag, id, 0); err != nil {
		return err
	}
	if seen[c*e.sz.appends+k].Swap(true) {
		return fmt.Errorf("append (client %d, seq %d) occurs twice", c, k)
	}
	return nil
}

// openShared creates one fresh blob and opens it from a fresh client
// per goroutine.
func openShared(ctx context.Context, e *env, st *stack, blockSize int64) ([]*blobseer.Blob, []*core.Client, error) {
	n := e.clients
	cores := make([]*core.Client, n)
	blobs := make([]*blobseer.Blob, n)
	for c := range cores {
		cores[c] = st.newCore()
	}
	b, err := cores[0].CreateBlob(ctx, blockSize, 1)
	if err != nil {
		return nil, nil, fmt.Errorf("create blob: %w", err)
	}
	blobs[0] = b
	for c := 1; c < n; c++ {
		if blobs[c], err = cores[c].OpenBlob(ctx, b.ID()); err != nil {
			return nil, nil, fmt.Errorf("open blob: %w", err)
		}
	}
	return blobs, cores, nil
}

// ---- mixed_rw: reads beside writes on one blob ----
//
// The versioning claim: readers pin snapshots and are never disturbed
// by writers publishing new ones. Half the clients overwrite seeded
// random aligned blocks with Blob.Write; the other half loop until
// the writers finish, refreshing Blob.Latest every 64 reads and doing
// Snapshot.ReadAt of 256 KB at seeded random unaligned offsets. The
// same core/mdtree/provider layers as the other three run in both
// directions at once, so a gain on one side that costs the other shows
// here. Clients get a 256-entry node cache under a 2*blocks-1 node
// tree: the only workload whose metadata working set exceeds the
// client cache. Every block-aligned segment of every read must be one
// write's uniform pattern — no torn read.

type mixedRW struct{}

func (mixedRW) writes() bool { return true }

func (mixedRW) slices() int { return 20 }

func (mixedRW) unit() string { return "write+read" }

func (mixedRW) config(*env, string) blobseer.Config {
	return blobseer.Config{BlockSize: mixedBlockSize, Replication: 1, MetaCacheSize: mixedCacheSize}
}

func (w mixedRW) setup(ctx context.Context, e *env, st *stack, m *meter) error {
	return w.slice(ctx, e.warm(), st, m, -1)
}

// mixedRoles splits the clients: ceil(C/2) writers, floor(C/2) but at
// least one reader.
func mixedRoles(clients int) (writers, readers int) {
	return (clients + 1) / 2, max(1, clients/2)
}

func (mixedRW) slice(ctx context.Context, e *env, st *stack, m *meter, _ int) error {
	nW, nR := mixedRoles(e.clients)
	we := *e
	we.clients = nW + nR
	blobs, cores, err := openShared(ctx, &we, st, mixedBlockSize)
	if err != nil {
		return fmt.Errorf("mixed_rw: %w", err)
	}
	blocks := e.sz.mixedBlocks
	size := int64(blocks) * mixedBlockSize

	// Populate, untimed: every block starts as write-seq 0.
	pop := make([]byte, populateSize)
	for off := int64(0); off < size; off += populateSize {
		n := min(populateSize, size-off)
		for b := int64(0); b < n; b += mixedBlockSize {
			fillWords(pop[b:b+mixedBlockSize], uint32((off+b)/mixedBlockSize), 0)
		}
		if _, err := blobs[0].Write(ctx, off, pop[:n]); err != nil {
			return fmt.Errorf("mixed_rw: populate at %d: %w", off, err)
		}
	}

	// written[b] is every seq some writer issued to block b; which of
	// them is newest is the version order's business, not ours.
	perWriter := e.sz.mixedWrites / nW
	written := make([]map[uint32]bool, blocks)

	m.beginSlice()
	m.timed(true, func() moved {
		var wBytes, rBytes, ops atomic.Int64
		var writersLeft atomic.Int64
		writersLeft.Store(int64(nW))
		var wWall, rWall time.Duration
		var wmu sync.Mutex
		t0 := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < nW; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer writersLeft.Add(-1)
				rng := seededRand(e.seed, uint64(100+w))
				buf := make([]byte, mixedBlockSize)
				lat := make([]float64, 0, perWriter)
				mine := make(map[uint32][]uint32)
				for k := 0; k < perWriter; k++ {
					b := uint32(rng.IntN(blocks))
					seq := uint32(w)<<24 | uint32(k+1)
					fillWords(buf, b, seq)
					octx, sp := m.rec.start(ctx, "op.write")
					tc := time.Now()
					_, err := blobs[w].Write(octx, int64(b)*mixedBlockSize, buf)
					sp.end()
					if err != nil {
						err = fmt.Errorf("mixed_rw: writer %d block %d: %w", w, b, err)
					} else {
						lat = append(lat, msSince(tc))
						wBytes.Add(mixedBlockSize)
						ops.Add(1)
						mine[b] = append(mine[b], seq)
					}
					m.op(err)
				}
				m.sample("write", lat)
				wmu.Lock()
				wWall = max(wWall, time.Since(t0))
				for b, seqs := range mine {
					if written[b] == nil {
						written[b] = make(map[uint32]bool)
					}
					for _, s := range seqs {
						written[b][s] = true
					}
				}
				wmu.Unlock()
			}()
		}
		for r := 0; r < nR; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := seededRand(e.seed, uint64(200+r))
				buf := make([]byte, mixedReadSize)
				lat := make([]float64, 0, 4096)
				bl := blobs[nW+r]
				var snap *blobseer.Snapshot
				for k := 0; writersLeft.Load() > 0; k++ {
					if k%latestEvery == 0 {
						s, err := bl.Latest(ctx)
						if err != nil {
							m.op(fmt.Errorf("mixed_rw: reader %d latest: %w", r, err))
							return
						}
						snap = s
					}
					off := rng.Int64N(size - mixedReadSize + 1)
					octx, sp := m.rec.start(ctx, "op.readat")
					tc := time.Now()
					_, err := snap.ReadAtContext(octx, buf, off)
					sp.end()
					if errors.Is(err, io.EOF) {
						err = nil // a read that ends exactly at the tail
					}
					ms := msSince(tc)
					if err == nil {
						err = checkMixedRead(buf, off)
					}
					if err != nil {
						err = fmt.Errorf("mixed_rw: reader %d at %d: %w", r, off, err)
					} else {
						lat = append(lat, ms)
						rBytes.Add(mixedReadSize)
						ops.Add(1)
					}
					m.op(err)
				}
				m.sample("readat", lat)
				wmu.Lock()
				rWall = max(rWall, time.Since(t0))
				wmu.Unlock()
			}()
		}
		wg.Wait()
		return moved{pBytes: wBytes.Load(), sBytes: rBytes.Load(), pWall: wWall, sWall: rWall, ops: ops.Load()}
	})

	// Final state, untimed: every block is uniform, and one a writer
	// touched holds a seq some writer issued to it, not the populate's.
	s, err := blobs[0].Latest(ctx)
	if err != nil {
		m.op(fmt.Errorf("mixed_rw: final latest: %w", err))
		return st.recycle()
	}
	for off := int64(0); off < size; off += populateSize {
		p := pop[:min(populateSize, size-off)]
		if _, err := s.ReadAtContext(ctx, p, off); err != nil && !errors.Is(err, io.EOF) {
			m.op(fmt.Errorf("mixed_rw: final read at %d: %w", off, err))
			continue
		}
		var ferr error
		for b := int64(0); b < int64(len(p)) && ferr == nil; b += mixedBlockSize {
			blk := uint32((off + b) / mixedBlockSize)
			seq, err := verifyWords(p[b:b+mixedBlockSize], blk, 0)
			switch {
			case err != nil:
				ferr = err
			case written[blk] == nil && seq != 0:
				ferr = fmt.Errorf("block %d: seq %#x, but no writer touched it", blk, seq)
			case written[blk] != nil && !written[blk][seq]:
				ferr = fmt.Errorf("block %d: seq %#x was never written to it (a lost write)", blk, seq)
			}
		}
		if ferr != nil {
			ferr = fmt.Errorf("mixed_rw: final state: %w", ferr)
		}
		m.op(ferr)
	}
	m.retire(coreStats(cores...))
	return st.recycle()
}

// checkMixedRead verifies one ReadAt buffer read from byte offset off:
// each block-aligned segment must be one write's pattern.
func checkMixedRead(buf []byte, off int64) error {
	for pos := int64(0); pos < int64(len(buf)); {
		abs := off + pos
		blk := abs / mixedBlockSize
		in := abs % mixedBlockSize
		n := min(mixedBlockSize-in, int64(len(buf))-pos)
		if _, err := verifyWords(buf[pos:pos+n], uint32(blk), in); err != nil {
			return err
		}
		pos += n
	}
	return nil
}
