package hdfs_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"blobseer/internal/cluster"
	"blobseer/internal/fs"
	"blobseer/internal/hdfs"
	"blobseer/internal/placement"
	"blobseer/internal/rpc"
	"blobseer/internal/util"
)

const B = 4 * 1024

func startHDFS(t *testing.T, cfg cluster.HDFSConfig) (*hdfs.FS, *cluster.HDFS) {
	t.Helper()
	if cfg.BlockSize == 0 {
		cfg.BlockSize = B
	}
	h, err := cluster.StartHDFS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Stop)
	f, err := h.NewFS("")
	if err != nil {
		t.Fatal(err)
	}
	return f, h
}

func pattern(tag byte, n int) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = tag ^ byte(i*7)
	}
	return d
}

func writeFile(t *testing.T, f fs.FileSystem, path string, data []byte) {
	t.Helper()
	w, err := f.Create(context.Background(), path, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	f, _ := startHDFS(t, cluster.HDFSConfig{Datanodes: 4})
	data := pattern('h', 3*B+99)
	writeFile(t, f, "/data/file", data)
	r, err := f.Open(context.Background(), "/data/file")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch (%d vs %d bytes): %v", len(got), len(data), err)
	}
	st, err := f.Stat(context.Background(), "/data/file")
	if err != nil || st.Size != int64(len(data)) {
		t.Errorf("Stat = %+v, %v", st, err)
	}
}

func TestAppendNotSupported(t *testing.T) {
	// Section V-F: "We could not perform the same experiment for HDFS,
	// since it does not implement the append operation."
	f, _ := startHDFS(t, cluster.HDFSConfig{})
	writeFile(t, f, "/f", pattern('a', 10))
	if _, err := f.Append(context.Background(), "/f"); !errors.Is(err, fs.ErrNoAppend) {
		t.Errorf("Append err = %v, want ErrNoAppend", err)
	}
}

func TestSingleWriterEnforced(t *testing.T) {
	f, _ := startHDFS(t, cluster.HDFSConfig{})
	ctx := context.Background()
	w1, err := f.Create(ctx, "/locked", true)
	if err != nil {
		t.Fatal(err)
	}
	// Second concurrent writer is rejected while the first holds the file.
	if _, err := f.Create(ctx, "/locked", true); !errors.Is(err, fs.ErrBusy) {
		t.Errorf("second create err = %v, want ErrBusy", err)
	}
	w1.Write(pattern('x', 10))
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	// After close the file is immutable but replaceable.
	w2, err := f.Create(ctx, "/locked", true)
	if err != nil {
		t.Fatal(err)
	}
	w2.Close()
}

func TestSeekAndSubReads(t *testing.T) {
	f, _ := startHDFS(t, cluster.HDFSConfig{})
	data := pattern('s', 2*B+50)
	writeFile(t, f, "/seek", data)
	r, _ := f.Open(context.Background(), "/seek")
	defer r.Close()
	if _, err := r.Seek(B-7, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 14)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[B-7:B+7]) {
		t.Error("cross-block read after seek mismatch")
	}
}

func TestLocalFirstPlacement(t *testing.T) {
	// A client co-deployed with a datanode stores every chunk locally —
	// the behaviour the paper works around by writing from dedicated
	// nodes (Section V-D).
	h, err := cluster.StartHDFS(cluster.HDFSConfig{Datanodes: 4, BlockSize: B})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	f, err := h.NewFS(h.HostOf(2)) // co-deployed with datanode 2
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, f, "/local", pattern('l', 4*B))
	layout := h.Namenode().Layout()
	if layout[2] != 4 {
		t.Errorf("layout = %v, want all 4 blocks on datanode 2", layout)
	}
	d := util.ManhattanDistance(layout)
	if d == 0 {
		t.Error("local-first placement should be maximally unbalanced")
	}
}

func TestRemoteClientStickyPlacementUnbalanced(t *testing.T) {
	// The Figure 3(b) shape: a remote client writing through the
	// default (sticky) policy produces a measurably unbalanced layout,
	// while round-robin (BlobSeer's strategy) would be perfectly balanced.
	h, err := cluster.StartHDFS(cluster.HDFSConfig{Datanodes: 10, BlockSize: B})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	f, _ := h.NewFS("") // dedicated (non-datanode) client
	writeFile(t, f, "/big", pattern('b', 40*B))
	d := util.ManhattanDistance(h.Namenode().Layout())
	if d == 0 {
		t.Error("sticky placement produced a perfectly balanced layout")
	}
}

func TestReplicationPipelineAndFailover(t *testing.T) {
	h, err := cluster.StartHDFS(cluster.HDFSConfig{Datanodes: 3, BlockSize: B, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	f, _ := h.NewFS("")
	data := pattern('r', 2*B)
	writeFile(t, f, "/rep", data)
	// Wipe one datanode; reads must fail over to surviving replicas.
	h.DatanodeService(h.DatanodeAddrs[0]).Store().DeletePrefix("")
	r, _ := f.Open(context.Background(), "/rep")
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after datanode loss: %v", err)
	}
}

func TestNamespaceOps(t *testing.T) {
	f, _ := startHDFS(t, cluster.HDFSConfig{})
	ctx := context.Background()
	writeFile(t, f, "/a/x", pattern('1', 100))
	writeFile(t, f, "/a/y", pattern('2', 200))
	sts, err := f.List(ctx, "/a")
	if err != nil || len(sts) != 2 {
		t.Fatalf("List = %v, %v", sts, err)
	}
	if sts[0].Size != 100 || sts[1].Size != 200 {
		t.Errorf("sizes = %d/%d", sts[0].Size, sts[1].Size)
	}
	if err := f.Rename(ctx, "/a/x", "/b/x"); err != nil {
		t.Fatal(err)
	}
	if err := f.Delete(ctx, "/a", true); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Open(ctx, "/a/y"); !errors.Is(err, fs.ErrNotFound) {
		t.Errorf("deleted open err = %v", err)
	}
	if err := f.Mkdirs(ctx, "/m/n"); err != nil {
		t.Fatal(err)
	}
	st, err := f.Stat(ctx, "/m/n")
	if err != nil || !st.IsDir {
		t.Errorf("mkdirs stat = %+v, %v", st, err)
	}
}

func TestLocationsForScheduling(t *testing.T) {
	h, err := cluster.StartHDFS(cluster.HDFSConfig{
		Datanodes: 4,
		BlockSize: B,
		Strategy:  placement.NewRoundRobin(), // deterministic for the test
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	f, _ := h.NewFS("")
	writeFile(t, f, "/input", pattern('L', 4*B))
	locs, err := f.Locations(context.Background(), "/input", 0, 4*B)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 4 {
		t.Fatalf("got %d locations", len(locs))
	}
	for i, l := range locs {
		if l.Off != int64(i)*B || len(l.Hosts) != 1 || l.Hosts[0] == "" {
			t.Errorf("loc %d = %+v", i, l)
		}
	}
}

// TestNoDatanodesIsErrNoProviders: a namenode with no live datanode
// refuses a block with placement.ErrNoProviders, which a BSFS write meets
// in the same situation, not with an anonymous remote error.
func TestNoDatanodesIsErrNoProviders(t *testing.T) {
	n := rpc.NewInprocNetwork()
	lis, err := n.Listen("namenode")
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(hdfs.NewService(hdfs.NewNamenode(B, placement.NewRoundRobin())).Mux())
	go srv.Serve(lis)
	defer srv.Close()
	pool := rpc.NewPool(n.Dial)
	defer pool.Close()
	f, err := hdfs.New(hdfs.Config{Pool: pool, NNAddr: "namenode", BlockSize: B})
	if err != nil {
		t.Fatal(err)
	}
	w, err := f.Create(context.Background(), "/nowhere", true)
	if err != nil {
		t.Fatal(err)
	}
	_, err = w.Write(pattern('n', B))
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if !errors.Is(err, placement.ErrNoProviders) {
		t.Fatalf("a write with no datanodes = %v, want placement.ErrNoProviders", err)
	}
}

func TestPartialBlockLocations(t *testing.T) {
	f, _ := startHDFS(t, cluster.HDFSConfig{})
	writeFile(t, f, "/p", pattern('p', B+B/2))
	locs, err := f.Locations(context.Background(), "/p", B, B)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 1 || locs[0].Off != B || locs[0].Len != B/2 {
		t.Errorf("locs = %+v", locs)
	}
}

func TestEmptyFile(t *testing.T) {
	f, _ := startHDFS(t, cluster.HDFSConfig{})
	writeFile(t, f, "/empty", nil)
	st, err := f.Stat(context.Background(), "/empty")
	if err != nil || st.Size != 0 {
		t.Fatalf("Stat = %+v, %v", st, err)
	}
	r, err := f.Open(context.Background(), "/empty")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if data, _ := io.ReadAll(r); len(data) != 0 {
		t.Error("empty file read returned data")
	}
}

// TestWriterCloseDoesNotLatchSuccessOnError mirrors the bsfs writer
// regression: Close used to set closed=true before the final flush, so
// a failed flush made a repeat Close return nil — reporting a lost
// tail (and an unsealed file) as durable.
func TestWriterCloseDoesNotLatchSuccessOnError(t *testing.T) {
	f, _ := startHDFS(t, cluster.HDFSConfig{Datanodes: 2})
	ctx, cancel := context.WithCancel(context.Background())
	w, err := f.Create(ctx, "/lost-tail", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(pattern('T', B/2)); err != nil {
		t.Fatal(err)
	}
	cancel() // the final flush will fail
	if err := w.Close(); err == nil {
		t.Fatal("Close with a failing flush returned nil")
	}
	if err := w.Close(); err == nil {
		t.Fatal("repeat Close after a failed flush returned nil (tail silently lost)")
	}
}

// TestReaderClosedSemantics: closed hdfs readers must return the
// reader sentinel from both Read and Seek, matching fs.ErrClosed.
func TestReaderClosedSemantics(t *testing.T) {
	f, _ := startHDFS(t, cluster.HDFSConfig{Datanodes: 2})
	writeFile(t, f, "/closed", pattern('c', B))
	r, err := f.Open(context.Background(), "/closed")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(make([]byte, 8)); !errors.Is(err, fs.ErrReaderClosed) || !errors.Is(err, fs.ErrClosed) {
		t.Errorf("Read after Close = %v, want ErrReaderClosed", err)
	}
	if _, err := r.Seek(0, io.SeekStart); !errors.Is(err, fs.ErrReaderClosed) {
		t.Errorf("Seek after Close = %v, want ErrReaderClosed", err)
	}
}
