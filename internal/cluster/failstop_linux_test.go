//go:build linux

package cluster

import (
	"bytes"
	"context"
	"io/fs"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/rpc"
	"blobseer/internal/util"
	"blobseer/internal/vmanager"
)

// TestVManagerFailsStopAndComesBackWhole: a durable version manager
// whose log fails mid-run stops, so its clients see a transport
// failure, not an application error; restarted, it takes the next
// append through the same client, and every acknowledged version reads
// back its bytes. The failed write is cut short by lowering the
// process's file-size limit, which is process-wide: this test must not
// run in parallel with another.
func TestVManagerFailsStopAndComesBackWhole(t *testing.T) {
	cfg := Config{DataProviders: 2, MetaProviders: 1, BlockSize: 64 * util.KB, DataDir: t.TempDir()}
	c, err := StartBlobSeer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	ctx := context.Background()
	h, err := c.NewClient("").CreateBlob(ctx, cfg.BlockSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	acked := map[blob.Version][]byte{}
	appendBlock := func(i int) error {
		p := bytes.Repeat([]byte{byte(i + 1)}, int(cfg.BlockSize))
		v, err := h.Append(ctx, p)
		if err == nil {
			acked[v] = p
		}
		return err
	}
	for i := range 3 {
		if err := appendBlock(i); err != nil {
			t.Fatal(err)
		}
	}

	cutFileSize(t, cfg.DataDir, func() {
		if appendBlock(3) == nil {
			t.Error("an append past the file-size limit was acknowledged")
		}
	})
	probe := vmanager.NewClient(c.Pool, c.VMAddrs...)
	probe.SetRetry(rpc.Backoff{})
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		_, err := probe.Latest(ctx, h.ID())
		if rpc.TransportFailure(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the shard whose log failed still answers (%v), want a transport failure", err)
		}
	}

	if err := c.RestartVManager(); err != nil {
		t.Fatal(err)
	}
	if err := appendBlock(4); err != nil {
		t.Fatalf("an append after the restart: %v", err)
	}
	hist, err := HistoryOf(ctx, probe, h.ID())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, cfg.BlockSize)
	for v, want := range acked {
		d, ok := hist.Desc(v)
		if !ok || d.Aborted {
			t.Fatalf("acknowledged version %d lost or aborted", v)
		}
		snap, err := h.Snapshot(ctx, v)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := snap.ReadAtContext(ctx, buf, d.Off); n != len(want) || !bytes.Equal(buf[:n], want) {
			t.Errorf("acknowledged version %d read %d bytes (%v), not its own %d", v, n, err, len(want))
		}
	}
}

// cutFileSize runs fn with the process's file-size limit just past the
// largest file under dir (room for a record's header and 4 bytes of
// its payload), so the next record written there is cut short.
func cutFileSize(t *testing.T, dir string, fn func()) {
	t.Helper()
	var size int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			fi, ierr := d.Info()
			if ierr != nil {
				return ierr
			}
			size = max(size, fi.Size())
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	cut := old
	cut.Cur = uint64(size) + 12
	if cut.Cur > old.Cur {
		t.Skipf("file-size limit %d is below the log's end", old.Cur)
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &cut); err != nil {
		t.Skipf("cannot lower the file-size limit: %v", err)
	}
	defer func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
			t.Fatal(err)
		}
	}()
	fn()
}
