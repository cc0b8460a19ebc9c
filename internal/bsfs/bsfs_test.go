package bsfs_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"testing"
	"time"

	"blobseer/internal/bsfs"
	"blobseer/internal/cluster"
	"blobseer/internal/fs"
	"blobseer/internal/stream"
	"blobseer/internal/vmanager"
)

const B = 4 * 1024

func startFS(t *testing.T) (*bsfs.FS, *cluster.BlobSeer) {
	t.Helper()
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 4,
		MetaProviders: 2,
		BlockSize:     B,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	f, err := cl.NewBSFS("")
	if err != nil {
		t.Fatal(err)
	}
	return f, cl
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

func readFile(t *testing.T, f fs.FileSystem, path string) []byte {
	t.Helper()
	r, err := f.Open(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func pattern(tag byte, n int) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = tag ^ byte(i*13)
	}
	return d
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	f, _ := startFS(t)
	data := pattern('q', 3*B+123) // multiple blocks + partial tail
	writeFile(t, f, "/data/file.bin", data)
	got := readFile(t, f, "/data/file.bin")
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: %d vs %d bytes", len(got), len(data))
	}
	st, err := f.Stat(context.Background(), "/data/file.bin")
	if err != nil || st.Size != int64(len(data)) || st.IsDir {
		t.Errorf("Stat = %+v, %v", st, err)
	}
}

func TestSmallWritesBuffered(t *testing.T) {
	// Hadoop writes a few KB at a time (Section IV-B); the write-behind
	// cache must coalesce them into whole-block commits.
	f, cl := startFS(t)
	ctx := context.Background()
	w, err := f.Create(ctx, "/small-writes", true)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < (stream.RunBlocks+1)*B/100+5; i++ {
		chunk := pattern(byte(i), 100)
		if _, err := w.Write(chunk); err != nil {
			t.Fatal(err)
		}
		want = append(want, chunk...)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := readFile(t, f, "/small-writes")
	if !bytes.Equal(got, want) {
		t.Fatal("buffered writes mismatch")
	}
	// The blob must have one version per run of blocks, not per Write
	// call: ceil(blocks/stream.RunBlocks) versions.
	id, err := cl.NSService().State().GetFile("/small-writes")
	if err != nil {
		t.Fatal(err)
	}
	h, _, _ := cl.VMService().State().LatestSince(id, math.MaxUint64, 0)
	blocks := (len(want) + B - 1) / B
	wantVersions := (blocks + stream.RunBlocks - 1) / stream.RunBlocks
	if int(h.Published) != wantVersions {
		t.Errorf("blob of %d blocks has %d versions, want %d (one per run)", blocks, h.Published, wantVersions)
	}
}

func TestSequentialSmallReadsPrefetch(t *testing.T) {
	// 4 KB-at-a-time sequential reads (the map-phase pattern) must
	// produce the full file through the block prefetch cache.
	f, _ := startFS(t)
	data := pattern('p', 2*B+777)
	writeFile(t, f, "/reads", data)
	r, err := f.Open(context.Background(), "/reads")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var got []byte
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, data) {
		t.Fatal("prefetched sequential read mismatch")
	}
}

func TestSeekAndRead(t *testing.T) {
	f, _ := startFS(t)
	data := pattern('s', 2*B)
	writeFile(t, f, "/seek", data)
	r, _ := f.Open(context.Background(), "/seek")
	defer r.Close()

	if pos, err := r.Seek(B-10, io.SeekStart); err != nil || pos != B-10 {
		t.Fatalf("seek = %d, %v", pos, err)
	}
	buf := make([]byte, 20)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[B-10:B+10]) {
		t.Error("read after seek mismatch")
	}
	if pos, _ := r.Seek(-5, io.SeekEnd); pos != 2*B-5 {
		t.Errorf("seek end = %d", pos)
	}
	rest, _ := io.ReadAll(r)
	if len(rest) != 5 {
		t.Errorf("tail read = %d bytes", len(rest))
	}
	if _, err := r.Seek(-1, io.SeekStart); err == nil {
		t.Error("negative seek accepted")
	}
}

func TestAppendToAlignedFile(t *testing.T) {
	f, _ := startFS(t)
	first := pattern('1', 2*B) // aligned
	writeFile(t, f, "/log", first)
	w, err := f.Append(context.Background(), "/log")
	if err != nil {
		t.Fatal(err)
	}
	second := pattern('2', B+33)
	if _, err := w.Write(second); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := readFile(t, f, "/log")
	if !bytes.Equal(got, append(append([]byte(nil), first...), second...)) {
		t.Fatal("append mismatch")
	}
}

func TestAppendToUnalignedFileMergesTail(t *testing.T) {
	f, _ := startFS(t)
	first := pattern('1', B+100) // unaligned tail
	writeFile(t, f, "/log2", first)
	w, err := f.Append(context.Background(), "/log2")
	if err != nil {
		t.Fatal(err)
	}
	second := pattern('2', 2*B)
	if _, err := w.Write(second); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := readFile(t, f, "/log2")
	want := append(append([]byte(nil), first...), second...)
	if !bytes.Equal(got, want) {
		t.Fatalf("unaligned append mismatch: %d vs %d bytes", len(got), len(want))
	}
}

func TestConcurrentAppendersSharedFile(t *testing.T) {
	// The Figure 5 workload at file-system level: N clients appending
	// 1-block records to one shared file, all records land intact.
	f, cl := startFS(t)
	ctx := context.Background()
	writeFile(t, f, "/shared-log", nil) // empty file

	const N = 8
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			af, err := cl.NewBSFS("")
			if err != nil {
				t.Error(err)
				return
			}
			w, err := af.Append(ctx, "/shared-log")
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := w.Write(bytes.Repeat([]byte{byte(i + 1)}, B)); err != nil {
				t.Error(err)
				return
			}
			if err := w.Close(); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	// Wait for publication of all appends.
	id, _ := cl.NSService().State().GetFile("/shared-log")
	if err := cl.VMService().State().WaitPublished(id, N, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	got := readFile(t, f, "/shared-log")
	if len(got) != N*B {
		t.Fatalf("shared log is %d bytes, want %d", len(got), N*B)
	}
	seen := map[byte]int{}
	for i := 0; i < N; i++ {
		seen[got[i*B]]++
	}
	for i := 1; i <= N; i++ {
		if seen[byte(i)] != 1 {
			t.Errorf("appender %d's record appears %d times", i, seen[byte(i)])
		}
	}
}

func TestOpenPinsSnapshot(t *testing.T) {
	f, _ := startFS(t)
	ctx := context.Background()
	v1 := pattern('a', B)
	writeFile(t, f, "/pin", v1)
	r, err := f.Open(ctx, "/pin")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Overwrite AFTER open.
	w, _ := f.Create(ctx, "/pin", true)
	w.Write(pattern('b', B))
	w.Close()
	got, _ := io.ReadAll(r)
	if !bytes.Equal(got, v1) {
		t.Error("open reader saw writes made after open")
	}
}

func TestOpenVersionTimeTravel(t *testing.T) {
	f, _ := startFS(t)
	ctx := context.Background()
	writeFile(t, f, "/tt", pattern('a', B))
	// Append twice -> versions 2 and 3.
	for i := 0; i < 2; i++ {
		w, _ := f.Append(ctx, "/tt")
		w.Write(pattern(byte('b'+i), B))
		w.Close()
	}
	n, err := f.Versions(ctx, "/tt")
	if err != nil || n != 3 {
		t.Fatalf("Versions = %d, %v", n, err)
	}
	r, err := f.OpenVersion(ctx, "/tt", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, _ := io.ReadAll(r)
	if !bytes.Equal(got, pattern('a', B)) {
		t.Error("version-1 read mismatch")
	}
	// Version 0 is blob.NoVersion internally; an externally supplied 0
	// must be rejected, never silently resolved to the latest snapshot.
	if _, err := f.OpenVersion(ctx, "/tt", 0); !errors.Is(err, vmanager.ErrBadVersion) {
		t.Errorf("OpenVersion(0) = %v, want ErrBadVersion", err)
	}
	if err := f.Branch(ctx, "/tt", 0, "/tt-branch", 2); !errors.Is(err, vmanager.ErrBadVersion) {
		t.Errorf("Branch(version 0) = %v, want ErrBadVersion", err)
	}
}

func TestNamespaceOperations(t *testing.T) {
	f, _ := startFS(t)
	ctx := context.Background()
	writeFile(t, f, "/a/1", pattern('x', 100))
	writeFile(t, f, "/a/2", pattern('y', 200))
	if err := f.Mkdirs(ctx, "/a/sub"); err != nil {
		t.Fatal(err)
	}
	sts, err := f.List(ctx, "/a")
	if err != nil || len(sts) != 3 {
		t.Fatalf("List = %+v, %v", sts, err)
	}
	if sts[0].Path != "/a/1" || sts[0].Size != 100 {
		t.Errorf("status = %+v", sts[0])
	}
	if err := f.Rename(ctx, "/a/1", "/b/1"); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, f, "/b/1"); len(got) != 100 {
		t.Error("renamed file unreadable")
	}
	if err := f.Delete(ctx, "/a", true); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Open(ctx, "/a/2"); !errors.Is(err, fs.ErrNotFound) {
		t.Errorf("deleted file open err = %v", err)
	}
}

func TestLocationsForScheduling(t *testing.T) {
	f, _ := startFS(t)
	ctx := context.Background()
	writeFile(t, f, "/input", pattern('L', 4*B))
	locs, err := f.Locations(ctx, "/input", 0, 4*B)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 4 {
		t.Fatalf("got %d locations", len(locs))
	}
	hosts := map[string]bool{}
	for _, l := range locs {
		if len(l.Hosts) == 0 || l.Hosts[0] == "" {
			t.Fatalf("location without host: %+v", l)
		}
		hosts[l.Hosts[0]] = true
	}
	if len(hosts) != 4 { // round-robin across 4 providers
		t.Errorf("locations on %d hosts, want 4", len(hosts))
	}
}

func TestEmptyFile(t *testing.T) {
	f, _ := startFS(t)
	writeFile(t, f, "/empty", nil)
	st, err := f.Stat(context.Background(), "/empty")
	if err != nil || st.Size != 0 {
		t.Fatalf("Stat = %+v, %v", st, err)
	}
	got := readFile(t, f, "/empty")
	if len(got) != 0 {
		t.Errorf("empty file read %d bytes", len(got))
	}
}

func TestManyFilesConcurrently(t *testing.T) {
	// The RandomTextWriter pattern: N writers, each its own file.
	f, cl := startFS(t)
	_ = f
	const N = 12
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wf, err := cl.NewBSFS("")
			if err != nil {
				t.Error(err)
				return
			}
			path := fmt.Sprintf("/out/part-%05d", i)
			data := pattern(byte(i), B+i*17)
			w, err := wf.Create(context.Background(), path, true)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := w.Write(data); err != nil {
				t.Error(err)
				return
			}
			if err := w.Close(); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	sts, err := f.List(context.Background(), "/out")
	if err != nil || len(sts) != N {
		t.Fatalf("List = %d entries, %v", len(sts), err)
	}
	for i, st := range sts {
		if st.Size != int64(B+i*17) {
			t.Errorf("part %d size = %d", i, st.Size)
		}
	}
}

// TestSmallFilesSpreadOverProviders: a file shorter than a block asks
// the placement for its one block, not a run's worth, so round-robin
// placement keeps spreading small files: 8 of them over 4 providers
// put 2 on each (a 16-block grant per file put all 8 on one).
func TestSmallFilesSpreadOverProviders(t *testing.T) {
	f, cl := startFS(t)
	for i := range 8 {
		writeFile(t, f, fmt.Sprintf("/small-%d", i), pattern(byte(i), 100))
	}
	for _, addr := range cl.ProviderAddrs {
		if n := cl.ProviderService(addr).Store().Stats().Items; n != 2 {
			t.Errorf("%s holds %d blocks of the 8 small files, want 2", addr, n)
		}
	}
}
