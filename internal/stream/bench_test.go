package stream_test

import (
	"context"
	"runtime"
	"testing"

	"blobseer/internal/stream"
)

// BenchmarkStreamWrite16M writes one 16 MB stream per iteration in
// 64 KB calls through 1 MB blocks and the default write-behind depth
// into a sink that drops the data, and reports the bytes allocated per
// byte written: the cost of the writer's own buffering, alone. Block
// buffers are recycled, so from the second stream on it is a few
// hundred bytes per stream. It also counts the runs each stream ends,
// which a BlobSeer create-mode stream publishes as versions: one per
// 16 MB, where publishing every block made 16.
func BenchmarkStreamWrite16M(b *testing.B) {
	const size, call, block = 16 << 20, 64 << 10, 1 << 20
	drop := func(context.Context, int64, []byte) error { return nil }
	var runs int
	endRun := func(context.Context, int64, error) error { runs++; return nil }
	chunk := make([]byte, call)
	stream16M := func() {
		w := stream.NewWriter(context.Background(), stream.WriterConfig{BlockSize: block, Depth: 2, WriteAt: drop, EndRun: endRun})
		for n := 0; n < size; n += call {
			if _, err := w.Write(chunk); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
	stream16M() // fill the free lists
	runs = 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream16M()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N) / size
	b.ReportMetric(perByte, "alloc-B/written-B")
	if perByte > 0.5 {
		b.Errorf("%.2f bytes allocated per byte written, want at most 0.5", perByte)
	}
	perStream := float64(runs) / float64(b.N)
	b.ReportMetric(perStream, "publishes/stream")
	if perStream > 1 {
		b.Errorf("%.2f runs ended per 16 MB stream, want at most 1", perStream)
	}
}
