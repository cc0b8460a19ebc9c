package cluster_test

import (
	"bytes"
	"context"
	"io"
	"testing"

	"blobseer/internal/cluster"
	"blobseer/internal/core"
	"blobseer/internal/util"
)

// TestHandleAPIAcrossTCP drives the handle surface over real TCP
// connections — CreateBlob, write-behind streaming, a pinned Snapshot
// serving ReadAt and a readahead stream — the full production wiring
// under the redesigned client API.
func TestHandleAPIAcrossTCP(t *testing.T) {
	const block = int64(4 * util.KB)
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 3,
		MetaProviders: 2,
		BlockSize:     block,
		UseTCP:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()
	c := cl.NewClient("")

	b, err := c.CreateBlob(ctx, block, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("tcp-handle "), int(3*block)/11)
	w := b.NewWriter(ctx, core.WriterOptions{Depth: 2})
	for off := 0; off < len(data); off += 1000 {
		end := min(off+1000, len(data))
		if _, err := w.Write(data[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := b.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != int64(len(data)) {
		t.Fatalf("snapshot size = %d, want %d", s.Size(), len(data))
	}
	got := make([]byte, len(data))
	if _, err := s.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("TCP handle ReadAt mismatch")
	}

	r := s.NewReader(ctx, core.ReaderOptions{Readahead: 2})
	defer r.Close()
	streamed, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed, data) {
		t.Fatal("TCP handle stream mismatch")
	}
}
