package node_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/namespace"
	"blobseer/internal/node"
	"blobseer/internal/obs"
	"blobseer/internal/rpc"
	"blobseer/internal/vmanager"
)

// TestSplitAddrs pins the address-list parse every binary validates: a
// list of only separators and blanks names no address (a usage error,
// not an index-out-of-range panic).
func TestSplitAddrs(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"", nil},
		{",", nil},
		{" , ", nil},
		{"a", []string{"a"}},
		{"a, b", []string{"a", "b"}},
	} {
		if got := node.SplitAddrs(tc.in); !slices.Equal(got, tc.want) {
			t.Errorf("SplitAddrs(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// startTCP starts cfg on a loopback listener (addr "" picks a port).
func startTCP(t *testing.T, cfg node.Config, addr string) *node.Node {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	lis, err := rpc.ListenTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Listener = lis
	n, err := node.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestDurableRolesExportWALGauges: both durable roles put their log's
// shape on /metrics, the one place it is reported; a volatile role has
// no log and no wal_* gauge.
func TestDurableRolesExportWALGauges(t *testing.T) {
	pool := rpc.NewPool(rpc.TCPDialer)
	defer pool.Close()
	dir := t.TempDir()
	vm := startTCP(t, node.Config{Role: node.VManager, Pool: pool, DataDir: dir}, "")
	defer vm.Stop()
	ns := startTCP(t, node.Config{Role: node.Namespace, Pool: pool, DataDir: dir, Endpoints: node.Endpoints{VM: []string{vm.Addr}}}, "")
	defer ns.Stop()
	volatile := startTCP(t, node.Config{Role: node.VManager, Pool: pool}, "")
	defer volatile.Stop()

	for name, reg := range map[string]*obs.Registry{"vmanager": vm.VM.Metrics(), "namespace": ns.NS.Metrics()} {
		g := reg.Snapshot().Gauges
		for _, k := range []string{"wal_segments", "wal_log_bytes", "wal_records", "wal_syncs", "wal_snapshots", "wal_compact_failures", "wal_stopped"} {
			if _, ok := g[k]; !ok {
				t.Errorf("%s exports no %s gauge: %v", name, k, g)
			}
		}
		if g["wal_segments"] != 1 {
			t.Errorf("%s: wal_segments = %d on a fresh log, want 1", name, g["wal_segments"])
		}
	}
	for k := range volatile.VM.Metrics().Snapshot().Gauges {
		if strings.HasPrefix(k, "wal_") {
			t.Errorf("volatile vmanager exports %s", k)
		}
	}
}

// TestStopAcknowledgesNothingItDidNotLog stops a durable version
// manager and namespace — the path blobseerd takes on SIGTERM — while
// clients publish and create files in tight loops, then starts both
// again on the same DataDir. Every publish and every create that
// returned nil must have survived, and every writer must have been
// refused once the stop cut it off: Stop may not close the log while a
// handler can still acknowledge.
func TestStopAcknowledgesNothingItDidNotLog(t *testing.T) {
	for round := 0; round < 50; round++ {
		stopUnderLoad(t, t.TempDir())
	}
}

func stopUnderLoad(t *testing.T, dir string) {
	const writers, warm = 3, 2 // each writer has this many acks before the stop
	ctx := context.Background()
	pool := rpc.NewPool(rpc.TCPDialer)
	defer pool.Close()
	once := rpc.Backoff{Attempts: 1} // a refused call fails, it does not wait for a restart

	vmCfg := node.Config{Role: node.VManager, Pool: pool, DataDir: dir}
	vmNode := startTCP(t, vmCfg, "")
	nsCfg := node.Config{Role: node.Namespace, Pool: pool, DataDir: dir, Endpoints: node.Endpoints{VM: []string{vmNode.Addr}}}
	nsNode := startTCP(t, nsCfg, "")

	vm := vmanager.NewClient(pool, vmNode.Addr)
	vm.SetRetry(once)
	ns := namespace.NewClient(pool, nsNode.Addr)
	ns.SetRetry(once)

	var (
		wg        sync.WaitGroup
		warmed    sync.WaitGroup
		published [writers]atomic.Uint64 // last version whose Commit returned nil
		created   [writers]atomic.Int64  // files 0..created-1 whose CreateFile returned nil
		blobs     [writers]blob.ID
	)
	for w := 0; w < writers; w++ {
		m, err := vm.CreateBlob(ctx, 4096, 1)
		if err != nil {
			t.Fatal(err)
		}
		blobs[w] = m.ID
		wg.Add(2)
		warmed.Add(2)
		go func() { // publisher: assign + commit, back to back
			defer wg.Done()
			for i := 1; ; i++ {
				a, err := vm.AssignVersion(ctx, m.ID, blob.KindAppend, 0, 4096, uint64(i), blob.NoVersion)
				if err == nil {
					err = vm.Commit(ctx, m.ID, a.Version)
				}
				if err != nil {
					if i <= warm {
						t.Errorf("publish %d failed before the stop: %v", i, err)
						warmed.Done()
					}
					return
				}
				published[w].Store(uint64(a.Version))
				if i == warm {
					warmed.Done()
				}
			}
		}()
		go func() { // creator
			defer wg.Done()
			for i := 0; ; i++ {
				if _, err := ns.CreateFile(ctx, fmt.Sprintf("/w%d/f%d", w, i), 4096, 1, false); err != nil {
					if i < warm {
						t.Errorf("create %d failed before the stop: %v", i, err)
						warmed.Done()
					}
					return
				}
				created[w].Store(int64(i + 1))
				if i+1 == warm {
					warmed.Done()
				}
			}
		}()
	}
	warmed.Wait()
	// Clients of a service stop before the service, as in cluster.Stop.
	nsNode.Stop()
	vmNode.Stop()
	wg.Wait() // every loop ended on an error: nothing was acknowledged after the stop

	vmNode = startTCP(t, vmCfg, vmNode.Addr)
	defer vmNode.Stop()
	nsNode = startTCP(t, nsCfg, nsNode.Addr)
	defer nsNode.Stop()
	vm.SetRetry(rpc.DefaultBackoff)
	ns.SetRetry(rpc.DefaultBackoff)
	for w := 0; w < writers; w++ {
		want := blob.Version(published[w].Load())
		if h, err := vm.Latest(ctx, blobs[w]); err != nil || h.Published < want {
			t.Errorf("writer %d: version %d was acknowledged, recovered latest is %d (%v)", w, want, h.Published, err)
		}
		for i := int64(0); i < created[w].Load(); i++ {
			if _, err := ns.GetFile(ctx, fmt.Sprintf("/w%d/f%d", w, i)); err != nil {
				t.Errorf("writer %d: file %d was acknowledged, lost after recovery: %v", w, i, err)
			}
		}
	}
}
