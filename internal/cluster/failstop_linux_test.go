//go:build linux

package cluster

import (
	"bytes"
	"context"
	"io/fs"
	"path/filepath"
	"slices"
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

	cutFileSize(t, cfg.DataDir, 12, func() {
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

// TestRefusedCommitIsRetriedOnTheRestart: when a durable version
// manager's log refuses an append's commit record, the shard sends no
// reply and stops; the client's retry carries the commit to the
// restarted shard, so that append is acknowledged and the blob's next
// append publishes within 5 s, with the janitor at its one-minute
// default. While the refused commit was answered with an error, the
// client gave up on it, its version stayed in flight in the restarted
// shard, and the blob published nothing until the janitor aborted it,
// about 60 s later. The same file-size limit as above: not parallel.
func TestRefusedCommitIsRetriedOnTheRestart(t *testing.T) {
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
	block := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, int(cfg.BlockSize)) }
	before := largestFile(t, cfg.DataDir)
	if _, err := h.Append(ctx, block(0)); err != nil {
		t.Fatal(err)
	}
	// An append journals an assign record, then a commit record: room
	// for all but the last byte of the two cuts the commit short.
	perAppend := largestFile(t, cfg.DataDir) - before
	refused := make(chan error, 1)
	cutFileSize(t, cfg.DataDir, perAppend-1, func() {
		go func() {
			_, err := h.Append(ctx, block(1))
			refused <- err
		}()
		select {
		case <-c.node(c.VMAddrs[0]).Failed():
		case <-time.After(10 * time.Second):
			t.Fatal("the shard whose log refused a commit record did not stop")
		}
	})
	if err := c.RestartVManager(); err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	v, err := h.Append(wctx, block(2))
	if err != nil {
		t.Fatalf("an append after the restart: %v", err)
	}
	snap, err := h.WaitPublished(wctx, v, 5*time.Second)
	if err != nil {
		t.Fatalf("version %d did not publish within 5 s of the restart: %v", v, err)
	}
	if err := <-refused; err != nil {
		t.Fatalf("the append whose commit record was refused: %v", err)
	}
	buf := make([]byte, 3*cfg.BlockSize)
	if n, err := snap.ReadAtContext(ctx, buf, 0); n != len(buf) || !bytes.Equal(buf, slices.Concat(block(0), block(1), block(2))) {
		t.Fatalf("the blob reads %d bytes (%v), not its three appends", n, err)
	}
}

// largestFile is the size of the largest file under dir: a role's log
// segment.
func largestFile(t *testing.T, dir string) int64 {
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
	return size
}

// cutFileSize runs fn with the process's file-size limit room bytes past
// the largest file under dir, so the next record written there past
// room is cut short. 12 is room for a record's header and 4 bytes of its
// payload.
func cutFileSize(t *testing.T, dir string, room int64, fn func()) {
	t.Helper()
	size := largestFile(t, dir)
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	cut := old
	cut.Cur = uint64(size + room)
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
