// Benchmarks: one per figure of the paper's evaluation (Section V),
// one per ablation in internal/bench, and real-cluster microbenchmarks of
// the client stack. The Fig* benchmarks run the simulated Grid'5000
// deployment at the paper's 270-node scale; a full sweep of every
// figure is what cmd/figures prints. The remaining benchmarks measure
// the real (in-process) daemons with testing.B semantics.
package blobseer_test

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"

	"blobseer"
	"blobseer/internal/bench"
	"blobseer/internal/bsfs"
	"blobseer/internal/namespace"
	"blobseer/internal/util"
)

// report folds a figure's series into benchmark metrics so `go test
// -bench` output carries the reproduced numbers.
func report(b *testing.B, series []bench.Series) {
	b.Helper()
	for _, s := range series {
		for _, p := range s.Points {
			b.ReportMetric(p.Y, fmt.Sprintf("%s_x%g", s.Name, p.X))
		}
	}
}

// --- Figures (simulated Grid'5000 testbed, paper topology) ---

func BenchmarkFig3aSingleWriter(b *testing.B) {
	var out []bench.Series
	for i := 0; i < b.N; i++ {
		out = bench.Fig3a([]float64{1, 16})
	}
	report(b, out)
}

func BenchmarkFig3bLoadBalance(b *testing.B) {
	var out []bench.Series
	for i := 0; i < b.N; i++ {
		out = bench.Fig3b([]float64{1, 16})
	}
	report(b, out)
}

func BenchmarkFig4ConcurrentReads(b *testing.B) {
	var out []bench.Series
	for i := 0; i < b.N; i++ {
		out = bench.Fig4([]int{50, 250})
	}
	report(b, out)
}

func BenchmarkFig5ConcurrentAppends(b *testing.B) {
	var out []bench.Series
	for i := 0; i < b.N; i++ {
		out = bench.Fig5([]int{50, 250})
	}
	report(b, out)
}

func BenchmarkFig6aRandomTextWriter(b *testing.B) {
	var out []bench.Series
	for i := 0; i < b.N; i++ {
		out = bench.Fig6a([]int{50, 1})
	}
	report(b, out)
}

func BenchmarkFig6bDistributedGrep(b *testing.B) {
	var out []bench.Series
	for i := 0; i < b.N; i++ {
		out = bench.Fig6b([]float64{6.4, 12.8})
	}
	report(b, out)
}

// --- Ablations (one design choice varied per run) ---

func BenchmarkAblationPlacement(b *testing.B) {
	var out []bench.Series
	for i := 0; i < b.N; i++ {
		out = bench.AblationPlacement(150)
	}
	report(b, out)
}

func BenchmarkAblationMetadataProviders(b *testing.B) {
	var out []bench.Series
	for i := 0; i < b.N; i++ {
		out = bench.AblationMetadataProviders(150, []int{1, 5, 20})
	}
	report(b, out)
}

func BenchmarkAblationVMService(b *testing.B) {
	var out []bench.Series
	for i := 0; i < b.N; i++ {
		out = bench.AblationVMService(150, []float64{0.5, 2, 10, 50})
	}
	report(b, out)
}

func BenchmarkAblationBlockSize(b *testing.B) {
	var out []bench.Series
	for i := 0; i < b.N; i++ {
		out = bench.AblationBlockSize(4, []int{16, 32, 64, 128})
	}
	report(b, out)
}

func BenchmarkAblationReplication(b *testing.B) {
	var out []bench.Series
	for i := 0; i < b.N; i++ {
		out = bench.AblationReplication(4, []int{1, 2, 3})
	}
	report(b, out)
}

// BenchmarkAblationTiering measures the tiered hot/cold store engine on
// real fs backends: hot-path read overhead vs a plain fs store, the
// cold-read + promotion cost after demoting every block, and the
// restored hot rate on re-read. The summary ratios are the acceptance
// claim: every demoted block readable, hot path within 10% of plain fs.
func BenchmarkAblationTiering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.TieringReport(true)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Check(); err != nil {
			b.Fatal(err)
		}
		report(b, r.Sections[0].Series)
		for _, k := range []string{"hot_ratio", "promoted_ratio", "readable"} {
			b.ReportMetric(r.Values[k], k)
		}
	}
}

// BenchmarkAblationPrefetch measures the real BSFS client's prefetch /
// write-behind cache (Section IV-B): a Hadoop-style sequence of 4 KB
// reads over a striped file, with and without the readahead window.
func BenchmarkAblationPrefetch(b *testing.B) {
	const (
		blockSize = 256 * util.KB
		fileSize  = 16 * blockSize
	)
	cl, err := blobseer.Start(blobseer.Config{DataProviders: 4, BlockSize: blockSize})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()
	fsys, err := cl.NewBSFS("")
	if err != nil {
		b.Fatal(err)
	}
	w, err := fsys.Create(ctx, "/bench/data", true)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, blockSize)
	for off := int64(0); off < fileSize; off += blockSize {
		if _, err := w.Write(buf); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}

	for _, mode := range []struct {
		name      string
		readahead int
	}{{"pipelined", 3}, {"prefetch", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			fsys, err := bsfs.New(bsfs.Config{
				Core:            cl.NewClient(""),
				NS:              namespace.NewClient(cl.Pool, cl.NSAddr),
				BlockSize:       blockSize,
				Replication:     1,
				ReadaheadBlocks: mode.readahead,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(fileSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := fsys.Open(ctx, "/bench/data")
				if err != nil {
					b.Fatal(err)
				}
				p := make([]byte, 4*util.KB)
				for {
					if _, err := r.Read(p); err == io.EOF {
						break
					} else if err != nil {
						b.Fatal(err)
					}
				}
				r.Close()
			}
		})
	}
}

// --- Real-cluster client-path microbenchmarks ---

func BenchmarkBSFSWrite(b *testing.B) {
	const blockSize = 256 * util.KB
	cl, err := blobseer.Start(blobseer.Config{DataProviders: 4, BlockSize: blockSize})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()
	fsys, err := cl.NewBSFS("")
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, blockSize)
	b.SetBytes(blockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := fsys.Create(ctx, fmt.Sprintf("/bench/w%d", i), true)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.Write(data); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBSFSAppend(b *testing.B) {
	const blockSize = 256 * util.KB
	cl, err := blobseer.Start(blobseer.Config{DataProviders: 4, BlockSize: blockSize})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()
	client := cl.NewClient("")
	bl, err := client.CreateBlob(ctx, blockSize, 1)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, blockSize)
	b.SetBytes(blockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bl.Append(ctx, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBSFSRead(b *testing.B) {
	const blockSize = 256 * util.KB
	cl, err := blobseer.Start(blobseer.Config{DataProviders: 4, BlockSize: blockSize})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()
	client := cl.NewClient("")
	bl, err := client.CreateBlob(ctx, blockSize, 1)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 8*blockSize)
	v, err := bl.Append(ctx, data)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	// Each iteration pins the version and reads it into a fresh buffer:
	// the cost of one cold whole-version read.
	for i := 0; i < b.N; i++ {
		s, err := bl.Snapshot(ctx, v)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.ReadAt(make([]byte, len(data)), 0); err != nil && err != io.EOF {
			b.Fatal(err)
		}
	}
}

func BenchmarkHDFSWrite(b *testing.B) {
	const blockSize = 256 * util.KB
	h, err := blobseer.StartHDFS(blobseer.HDFSConfig{Datanodes: 4, BlockSize: blockSize})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Stop()
	ctx := context.Background()
	fsys, err := h.NewFS("")
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, blockSize)
	b.SetBytes(blockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := fsys.Create(ctx, fmt.Sprintf("/bench/w%d", i), true)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.Write(data); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendShared is the paper's Fig 5 shape on the real stack:
// two clients append aligned 64 KB blocks to one blob over loopback
// TCP. At that size the per-call control path (placement, version
// grant, tree build, DHT batch, publish) is the cost, and it must be
// constant in the blob's age: the budget is the mem store's resident
// copy plus 15%, and 40 allocations per append — about 21 today: the
// handler goroutine of each call, the stored block, the metadata batch's
// keys and values, the node-cache entry, and a few per-call records. Run
// it with -benchtime=2000x (CI does).
func BenchmarkAppendShared(b *testing.B) {
	const blockSize, appenders = 64 * util.KB, 2
	cl, err := blobseer.Start(blobseer.Config{BlockSize: blockSize, UseTCP: true})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()
	first, err := cl.NewClient("").CreateBlob(ctx, blockSize, 1)
	if err != nil {
		b.Fatal(err)
	}
	blobs := []*blobseer.Blob{first}
	for len(blobs) < appenders {
		bl, err := cl.NewClient("").OpenBlob(ctx, first.ID())
		if err != nil {
			b.Fatal(err)
		}
		blobs = append(blobs, bl)
	}
	appendEach := func(n int) {
		var wg sync.WaitGroup
		for _, bl := range blobs {
			wg.Add(1)
			go func(bl *blobseer.Blob) {
				defer wg.Done()
				data := make([]byte, blockSize)
				for i := 0; i < n; i++ {
					if _, err := bl.Append(ctx, data); err != nil {
						b.Error(err)
						return
					}
				}
			}(bl)
		}
		wg.Wait()
	}
	appendEach(8) // connections dialed, free lists filled
	per := (b.N + appenders - 1) / appenders
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.SetBytes(blockSize)
	b.ResetTimer()
	appendEach(per)
	b.StopTimer()
	runtime.ReadMemStats(&after)
	ops := float64(per * appenders)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / ops / float64(blockSize)
	allocs := float64(after.Mallocs-before.Mallocs) / ops
	b.ReportMetric(perByte, "alloc-B/payload-B")
	b.ReportMetric(allocs, "allocs/append")
	if b.N >= 1000 && (perByte > 1.15 || allocs > 40) {
		b.Errorf("%.2f bytes and %.0f allocations per 64 KB append, want at most 1.15 B/B and 40", perByte, allocs)
	}
}

// BenchmarkStreamReadCold is the paper's Fig 4 shape for one map task
// on the real stack: a fresh BSFS client (cold, as a new task is) opens
// a 16-block file on file:// stores and reads it in 64 KB calls through
// the default readahead, over loopback TCP. What it allocates per block,
// client and daemons together, is the read path's bookkeeping: about
// 14 today, most of them the fresh client's own, spread over its 16
// blocks, and each call's handler goroutine, the file the provider
// sends, its path and the prefetch's goroutine. It was 33.5 while every
// fetch, resolve and cache miss built records it dropped on return, 21
// while each block fetched its own leaf and 19.6 while the stream
// fetched its leaves a window at a time. It also counts the metadata
// batches the metadata providers answer per block: none, since the
// pin's descriptors name every block's replicas, where windows of
// leaves took 3/16 per block and a batch per block 1. Run it with
// -benchtime=100x (CI does).
func BenchmarkStreamReadCold(b *testing.B) {
	const blockSize, blocks, call = util.MB, 16, 64 * util.KB
	cl, err := blobseer.Start(blobseer.Config{
		BlockSize: blockSize,
		UseTCP:    true,
		StoreURL:  "file://" + b.TempDir() + "/p{n}",
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()
	fsys, err := cl.NewBSFS("")
	if err != nil {
		b.Fatal(err)
	}
	w, err := fsys.Create(ctx, "/bench/input", true)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := w.Write(make([]byte, blocks*blockSize)); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	p := make([]byte, call)
	readCold := func() {
		fsys, err := cl.NewBSFS("")
		if err != nil {
			b.Fatal(err)
		}
		r, err := fsys.Open(ctx, "/bench/input")
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.CopyBuffer(io.Discard, struct{ io.Reader }{r}, p)
		if err != nil || n != blocks*blockSize {
			b.Fatalf("read %d bytes, %v; want %d", n, err, blocks*blockSize)
		}
		r.Close()
	}
	readCold() // connections dialed, free lists filled
	metaBatches := func() (n int64) {
		for _, addr := range cl.MetaAddrs {
			n += cl.MetaService(addr).Metrics().Histogram("get_batch_size").Count()
		}
		return n
	}
	batches := metaBatches()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.SetBytes(blocks * blockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		readCold()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(b.N*blocks)
	perBlock := float64(metaBatches()-batches) / float64(b.N*blocks)
	b.ReportMetric(allocs, "allocs/block")
	b.ReportMetric(perBlock, "meta_batches/block")
	if b.N >= 50 && allocs > 20 {
		b.Errorf("%.1f allocations per block of a cold BSFS read, want at most 20", allocs)
	}
	if perBlock > 0 {
		b.Errorf("%.2f metadata batches per block of a cold BSFS read, want none", perBlock)
	}
}
