//go:build linux

package node_test

import (
	"io/fs"
	"path/filepath"
	"syscall"
	"testing"

	"blobseer/internal/node"
	"blobseer/internal/rpc"
)

// TestStoppedLogReadsStopped: a durable version manager whose log a
// failed write stopped exports wal_stopped = 1, where it read 0: the log
// refuses every mutation from then on, and no other gauge says so. The
// write is cut short by lowering the process's file-size limit, which
// is process-wide: this test must not run in parallel with another.
func TestStoppedLogReadsStopped(t *testing.T) {
	pool := rpc.NewPool(rpc.TCPDialer)
	defer pool.Close()
	dir := t.TempDir()
	vm := startTCP(t, node.Config{Role: node.VManager, Pool: pool, DataDir: dir}, "")
	defer vm.Stop()
	st := vm.VM.State()
	if _, err := st.CreateBlob(4096, 1); err != nil {
		t.Fatal(err)
	}
	stopped := func() int64 { return vm.VM.Metrics().Snapshot().Gauges["wal_stopped"] }
	if got := stopped(); got != 0 {
		t.Fatalf("wal_stopped = %d on a healthy log, want 0", got)
	}

	var size int64 // the one segment's
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
	cut.Cur = uint64(size) + 12 // a record's header and 4 bytes of its payload
	if cut.Cur > old.Cur {
		t.Skipf("file-size limit %d is below the segment's end", old.Cur)
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &cut); err != nil {
		t.Skipf("cannot lower the file-size limit: %v", err)
	}
	_, err = st.CreateBlob(4096, 1)
	if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); rerr != nil {
		t.Fatal(rerr)
	}
	if err == nil {
		t.Fatal("a create past the file-size limit was acknowledged")
	}
	if got := stopped(); got != 1 {
		t.Errorf("wal_stopped = %d after a failed write stopped the log, want 1", got)
	}
}
