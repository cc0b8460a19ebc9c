//go:build linux

package node_test

import (
	"context"
	"io/fs"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"blobseer/internal/namespace"
	"blobseer/internal/node"
	"blobseer/internal/rpc"
)

// TestNamespaceFailsStop: a durable namespace whose log a failed write
// stopped stops serving: Failed names the cause, a call to it fails as
// a transport failure, and the namespace restarted on the same DataDir
// serves what was acknowledged and takes new mutations. The write is
// cut short by lowering the process's file-size limit, which is
// process-wide: this test must not run in parallel with another.
func TestNamespaceFailsStop(t *testing.T) {
	pool := rpc.NewPool(rpc.TCPDialer)
	defer pool.Close()
	dir := t.TempDir()
	vm := startTCP(t, node.Config{Role: node.VManager, Pool: pool}, "")
	defer vm.Stop()
	cfg := node.Config{Role: node.Namespace, Pool: pool, DataDir: dir, Endpoints: node.Endpoints{VM: []string{vm.Addr}}}
	ns := startTCP(t, cfg, "")
	defer ns.Stop()
	c, ctx := namespace.NewClient(pool, ns.Addr), context.Background()
	id, err := c.CreateFile(ctx, "/d/f", 4096, 1, false)
	if err != nil {
		t.Fatal(err)
	}

	cutFileSize(t, dir, func() {
		if err := c.Mkdirs(ctx, "/e"); err == nil {
			t.Error("a mkdirs past the file-size limit was acknowledged")
		}
	})
	select {
	case err := <-ns.Failed():
		t.Logf("the namespace stopped: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("the namespace whose log failed is still up")
	}
	c.SetRetry(rpc.Backoff{})
	if _, err := c.GetFile(ctx, "/d/f"); !rpc.TransportFailure(err) {
		t.Fatalf("a lookup on the stopped namespace = %v, want a transport failure", err)
	}

	ns = startTCP(t, cfg, ns.Addr)
	defer ns.Stop()
	if got, err := c.GetFile(ctx, "/d/f"); err != nil || got != id {
		t.Errorf("after the restart /d/f = (%d, %v), want (%d, nil)", got, err, id)
	}
	if err := c.Mkdirs(ctx, "/e"); err != nil {
		t.Errorf("a mkdirs on the restarted namespace: %v", err)
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
