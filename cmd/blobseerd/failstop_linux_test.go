//go:build linux

package main

import (
	"context"
	"io/fs"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"blobseer/internal/rpc"
	"blobseer/internal/vmanager"
)

// TestFailedLogStopsTheDaemon: a durable version manager whose log a
// failed write stopped leaves, and run returns an error that names the
// failure, so the daemon exits non-zero. The write is cut short by
// lowering the process's file-size limit, which is process-wide: this
// test must not run in parallel with another.
func TestFailedLogStopsTheDaemon(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started, done := make(chan string, 1), make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-role", "vmanager", "-data-dir", dir}, func(a string) { started <- a })
	}()
	var addr string
	select {
	case addr = <-started:
	case err := <-done:
		t.Fatal(err)
	}
	pool := rpc.NewPool(rpc.TCPDialer)
	defer pool.Close()
	vm := vmanager.NewClient(pool, addr)
	if _, err := vm.CreateBlob(ctx, 4096, 1); err != nil {
		t.Fatal(err)
	}
	cutFileSize(t, dir, func() {
		if _, err := vm.CreateBlob(ctx, 4096, 1); err == nil {
			t.Error("a create past the file-size limit was acknowledged")
		}
	})
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "write-ahead log failed") || !strings.Contains(err.Error(), "file too large") {
			t.Errorf("run returned %v, want the log's failure", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the daemon whose log failed is still running")
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
