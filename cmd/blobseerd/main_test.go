package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/bsfs"
	"blobseer/internal/cluster"
	"blobseer/internal/node"
	"blobseer/internal/rpc"
	"blobseer/internal/vmanager"
)

// daemon runs one blobseerd in this process and returns its bound
// address and a function that delivers the stop signal and waits for
// the shutdown to finish.
func daemon(t *testing.T, args ...string) (addr string, stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	started, done := make(chan string, 1), make(chan error, 1)
	go func() { done <- run(ctx, args, func(a string) { started <- a }) }()
	stop = func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("blobseerd %v: %v", args, err)
		}
		done <- nil // a second stop (the cleanup after an explicit one) finds this
	}
	select {
	case addr = <-started:
	case err := <-done:
		cancel()
		t.Fatalf("blobseerd %v: %v", args, err)
	}
	t.Cleanup(stop)
	return addr, stop
}

// TestDeployment starts the deployment the README and the verify skill
// describe — one blobseerd per role — and drives it through the client
// stack bsfsctl builds from addresses alone: a multi-block file at
// replication 2, then the same version again after the durable version
// manager was stopped and started on the same -data-dir.
func TestDeployment(t *testing.T) {
	dir := t.TempDir()
	meta0, _ := daemon(t, "-role", "meta")
	meta1, _ := daemon(t, "-role", "meta")
	vmArgs := []string{"-role", "vmanager", "-data-dir", dir}
	vm, stopVM := daemon(t, vmArgs...)
	pm, stopPM := daemon(t, "-role", "pmanager")
	ns, stopNS := daemon(t, "-role", "namespace", "-vmanager", vm, "-data-dir", dir)
	for _, host := range []string{"host-0", "host-1"} {
		daemon(t, "-role", "provider", "-pmanager", pm, "-host", host, "-heartbeat", "50ms")
	}

	pool := rpc.NewPool(rpc.TCPDialer)
	defer pool.Close()
	clients := node.Connect(pool, node.Endpoints{
		VM: []string{vm}, PM: pm, NS: ns, Meta: []string{meta0, meta1}, MetaReplication: 2,
	})
	fsys, err := clients.BSFS(clients.Core(""), bsfs.Config{BlockSize: 16 << 10, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	payload := bytes.Repeat([]byte("one node per process "), 10000) // ~13 blocks
	w, err := fsys.Create(ctx, "/data/input", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	version, err := fsys.Versions(ctx, "/data/input")
	if err != nil {
		t.Fatal(err)
	}
	readBack := func(when string) {
		t.Helper()
		r, err := fsys.OpenVersion(ctx, "/data/input", uint64(version))
		if err != nil {
			t.Fatalf("%s: open version %d: %v", when, version, err)
		}
		defer r.Close()
		if got, err := io.ReadAll(r); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%s: read %d bytes (%v), want the %d written", when, len(got), err, len(payload))
		}
	}
	readBack("first read")
	st, err := fsys.Stat(ctx, "/data/input")
	if err != nil {
		t.Fatal(err)
	}
	locs, err := fsys.Locations(ctx, "/data/input", 0, st.Size)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range locs {
		if len(l.Hosts) != 2 {
			t.Fatalf("block at %d is on hosts %v, want 2 replicas", l.Off, l.Hosts)
		}
	}

	stopVM()
	_, stopVM = daemon(t, append(vmArgs, "-listen", vm)...)
	readBack("after the vmanager restart")

	// A restarted provider manager has lost its membership; both
	// providers register again on their next heartbeat.
	stopPM()
	daemon(t, "-role", "pmanager", "-listen", pm)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		infos, err := clients.PM().List(ctx)
		if err == nil && len(infos) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted pmanager lists %d providers (%v), want the 2 heartbeating ones", len(infos), err)
		}
	}

	// The in-process deployment journals under the same layout: started
	// on the daemons' -data-dir it recovers what they logged.
	b, err := fsys.OpenBlob(ctx, "/data/input")
	if err != nil {
		t.Fatal(err)
	}
	stopNS()
	stopVM()
	cl, err := cluster.StartBlobSeer(cluster.Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	if h, _, err := cl.VMService().State().LatestSince(b.ID(), math.MaxUint64, 0); err != nil || h.Published != version {
		t.Errorf("in-process vmanager on the daemons' -data-dir: latest = %d (%v), want %d", h.Published, err, version)
	}
	if got, err := cl.NSService().State().GetFile("/data/input"); err != nil || got != b.ID() {
		t.Errorf("in-process namespace on the daemons' -data-dir: /data/input = %d (%v), want blob %d", got, err, b.ID())
	}
}

// TestDataDirWrittenInProcess is the other direction, sharded: what an
// in-process deployment with two version-manager shards journals, two
// blobseerd -shard k/2 daemons and a namespace daemon recover from the
// same directory.
func TestDataDirWrittenInProcess(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	cl, err := cluster.StartBlobSeer(cluster.Config{DataDir: dir, VMShards: 2, BlockSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	fsys, err := cl.NewBSFS("")
	if err != nil {
		cl.Stop()
		t.Fatal(err)
	}
	want := map[string]blob.Version{} // path -> published version; two files land on two shards
	for _, path := range []string{"/a", "/b"} {
		w, err := fsys.Create(ctx, path, true)
		if err == nil {
			_, err = w.Write(bytes.Repeat([]byte(path), 4096))
		}
		if err == nil {
			err = w.Close()
		}
		if err == nil {
			want[path], err = fsys.Versions(ctx, path)
		}
		if err != nil {
			cl.Stop()
			t.Fatal(err)
		}
	}
	cl.Stop()

	vm0, _ := daemon(t, "-role", "vmanager", "-shard", "0/2", "-data-dir", dir)
	vm1, _ := daemon(t, "-role", "vmanager", "-shard", "1/2", "-data-dir", dir)
	ns, _ := daemon(t, "-role", "namespace", "-vmanager", vm0+","+vm1, "-data-dir", dir)
	pool := rpc.NewPool(rpc.TCPDialer)
	defer pool.Close()
	clients := node.Connect(pool, node.Endpoints{VM: []string{vm0, vm1}, NS: ns})
	shards := map[int]bool{}
	for path, v := range want {
		id, err := clients.NS().GetFile(ctx, path)
		if err != nil {
			t.Fatalf("namespace daemon on the in-process DataDir: %s: %v", path, err)
		}
		shards[vmanager.ShardOf(id, 2)] = true
		if h, err := clients.VM().Latest(ctx, id); err != nil || h.Published != v {
			t.Errorf("vmanager daemons on the in-process DataDir: %s latest = %d (%v), want %d", path, h.Published, err, v)
		}
	}
	if len(shards) != 2 {
		t.Fatalf("both files landed on one shard (%v); the test needs one per shard", shards)
	}
}

// TestVManagerNeedsNoMetadataProviders: a version manager starts with no
// -meta, and aborting a version, which it does without writing any
// metadata, publishes it.
func TestVManagerNeedsNoMetadataProviders(t *testing.T) {
	addr, _ := daemon(t, "-role", "vmanager")
	pool := rpc.NewPool(rpc.TCPDialer)
	defer pool.Close()
	vm := vmanager.NewClient(pool, addr)
	ctx := context.Background()
	m, err := vm.CreateBlob(ctx, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := vm.AssignVersion(ctx, m.ID, blob.KindAppend, 0, 4096, 1, blob.NoVersion)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Abort(ctx, m.ID, a.Version); err != nil {
		t.Fatal(err)
	}
	if h, err := vm.Latest(ctx, m.ID); err != nil || h.Published != a.Version {
		t.Errorf("latest after the abort = %d, %v; want %d", h.Published, err, a.Version)
	}
}

// TestUsageErrors pins the command-line mistakes blobseerd reports
// (rather than panicking on, or starting a half-configured daemon).
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "-role is required"},
		{[]string{"-role", "namespace", "-vmanager", ","}, "namespace: -vmanager is required"},
		{[]string{"-role", "vmanager", "-shard", "2/2"}, `vmanager: bad -shard "2/2" (want k/K with 0 <= k < K)`},
		{[]string{"-role", "provider"}, "provider: -pmanager is required"},
		{[]string{"-role", "datanode"}, "datanode: -namenode is required"},
		{[]string{"-role", "pmanager", "-strategy", "best"}, `unknown strategy "best"`},
		{[]string{"-role", "repair", "-vmanager", "a", "-pmanager", "b"}, "repair: -vmanager, -pmanager and -meta are required"},
		{[]string{"-role", "janitor"}, `unknown role "janitor"`},
		{[]string{"-role", "tasktracker"}, "tasktracker: Config.FS and a tasktracker's JobTrackerAddr are required"},
		{[]string{"-role", "vmanager", "-wal-sync", "5ms"}, "flag provided but not defined: -wal-sync"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := run(ctx, tc.args, func(string) { cancel() }) // a daemon that does start is stopped at once
		cancel()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("blobseerd %v: error %v, want %q", tc.args, err, tc.want)
		}
	}
}
