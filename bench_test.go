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
		r, err := bench.TieringBenchRun(true)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Check(); err != nil {
			b.Fatal(err)
		}
		report(b, r.Throughput)
		b.ReportMetric(r.HotRatio, "hot_ratio")
		b.ReportMetric(r.PromotedRatio, "promoted_ratio")
		b.ReportMetric(r.Readable, "readable")
	}
}

// BenchmarkAblationPrefetch measures the real BSFS client's prefetch /
// write-behind cache (Section IV-B): a Hadoop-style sequence of 4 KB
// reads over a striped file, with the cache enabled vs disabled.
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
		name         string
		disableCache bool
		readahead    int
	}{{"pipelined", false, 3}, {"prefetch", false, 0}, {"nocache", true, 0}} {
		b.Run(mode.name, func(b *testing.B) {
			fsys, err := bsfs.New(bsfs.Config{
				Core:            cl.NewClient(""),
				NS:              namespace.NewClient(cl.Pool, cl.NSAddr),
				BlockSize:       blockSize,
				Replication:     1,
				ReadaheadBlocks: mode.readahead,
				DisableCache:    mode.disableCache,
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
	cl, err := blobseer.Start(blobseer.Config{BlockSize: blockSize, MetaCacheSize: -1, UseTCP: true})
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
