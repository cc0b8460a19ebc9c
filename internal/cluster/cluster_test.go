package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/cluster"
	"blobseer/internal/core"
	"blobseer/internal/fs"
	"blobseer/internal/mapred"
	"blobseer/internal/mapred/apps"
	"blobseer/internal/util"
	"blobseer/internal/wire"
)

const blockSize = int(64 * util.KB)

// The helpers below run one by-ID blob operation through the
// Blob/Snapshot handles.

func writeBlob(ctx context.Context, c *core.Client, id blob.ID, off int64, data []byte) (blob.Version, error) {
	b, err := c.OpenBlob(ctx, id)
	if err != nil {
		return 0, err
	}
	return b.Write(ctx, off, data)
}

func appendBlob(ctx context.Context, c *core.Client, id blob.ID, data []byte) (blob.Version, error) {
	b, err := c.OpenBlob(ctx, id)
	if err != nil {
		return 0, err
	}
	return b.Append(ctx, data)
}

// pinBlob pins version v of blob id (NoVersion = latest published).
func pinBlob(ctx context.Context, c *core.Client, id blob.ID, v blob.Version) (*core.Snapshot, error) {
	b, err := c.OpenBlob(ctx, id)
	if err != nil {
		return nil, err
	}
	return b.Snapshot(ctx, v)
}

// waitBlob pins version v of blob id once it is published.
func waitBlob(ctx context.Context, c *core.Client, id blob.ID, v blob.Version, timeout time.Duration) (*core.Snapshot, error) {
	b, err := c.OpenBlob(ctx, id)
	if err != nil {
		return nil, err
	}
	return b.WaitPublished(ctx, v, timeout)
}

// readBlob returns up to length bytes at off of version v, clamped at
// the snapshot size.
func readBlob(ctx context.Context, c *core.Client, id blob.ID, v blob.Version, off, length int64) ([]byte, error) {
	s, err := pinBlob(ctx, c, id, v)
	if err != nil || off >= s.Size() || length <= 0 {
		return nil, err
	}
	buf := make([]byte, min(length, s.Size()-off))
	if _, err := s.ReadAtContext(ctx, buf, off); err != nil && err != io.EOF {
		return nil, err
	}
	return buf, nil
}

// TestBlobSeerOverTCP runs the full client stack against daemons
// listening on real loopback TCP sockets — the cross-process
// deployment cmd/blobseerd provides, in-process.
func TestBlobSeerOverTCP(t *testing.T) {
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 4,
		MetaProviders: 2,
		BlockSize:     int64(blockSize),
		UseTCP:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	ctx := context.Background()
	fsys, err := cl.NewBSFS("")
	if err != nil {
		t.Fatal(err)
	}

	payload := bytes.Repeat([]byte("tcp"), blockSize) // ~3 blocks
	w, err := fsys.Create(ctx, "/t/f", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := fsys.Open(ctx, "/t/f")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("TCP round trip mismatch: %d bytes vs %d", len(got), len(payload))
	}

	locs, err := fsys.Locations(ctx, "/t/f", 0, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) == 0 {
		t.Fatal("no block locations over TCP")
	}
	for _, l := range locs {
		if len(l.Hosts) == 0 || !strings.HasPrefix(l.Hosts[0], "host-") {
			t.Fatalf("bad location hosts %v", l.Hosts)
		}
	}
}

// TestRoundTripWithPoisonedBuffers drives a replicated write and both
// read paths over TCP while every released buffer is overwritten with
// 0xDB: a layer that kept a slice of a recycled frame, block buffer or
// response (stream, rpc, provider chain, store) returns wrong bytes
// here instead of usually-right ones. At R = 3 the middle hop of every
// chain forwards a frame whose tail aliases the request it is holding.
func TestRoundTripWithPoisonedBuffers(t *testing.T) {
	wire.PoisonReleased(true)
	defer wire.PoisonReleased(false)
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 4,
		MetaProviders: 2,
		BlockSize:     int64(blockSize),
		Replication:   3,
		UseTCP:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()
	fsys, err := cl.NewBSFS("")
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 9*blockSize+777)
	for i := range payload {
		payload[i] = byte(i * 31 >> 3)
	}
	w, err := fsys.Create(ctx, "/p/f", true)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(payload); off += 10_000 { // write-behind recycles block buffers
		if _, err := w.Write(payload[off:min(off+10_000, len(payload))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := fsys.Open(ctx, "/p/f") // streaming read: readahead buffers, GetInto
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	r.Close()
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("streamed read-back: %d bytes, %v; want the %d written", len(got), err, len(payload))
	}
	// The handle path: one multi-block append, then an unaligned ReadAt
	// across blocks into a caller buffer.
	b, err := cl.NewClient("").CreateBlob(ctx, int64(blockSize), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Append(ctx, payload); err != nil {
		t.Fatal(err)
	}
	got, err = readBlob(ctx, b.Client(), b.ID(), blob.NoVersion, 12345, int64(3*blockSize))
	if err != nil || !bytes.Equal(got, payload[12345:12345+3*blockSize]) {
		t.Fatalf("ReadAt across blocks: %d bytes, %v", len(got), err)
	}
	// The reads above saw one replica of each block; every hop of every
	// chain must hold the same bytes.
	copies := make(map[string][][]byte)
	for _, a := range cl.ProviderAddrs {
		st := cl.ProviderService(a).Store()
		keys, err := st.Keys("")
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			v, err := st.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			copies[k] = append(copies[k], v)
		}
	}
	if len(copies) != 20 {
		t.Errorf("%d distinct blocks stored, want 10 per file", len(copies))
	}
	for k, vs := range copies {
		if len(vs) != 3 {
			t.Errorf("block %s has %d replicas, want 3", k, len(vs))
		}
		for _, v := range vs[1:] {
			if !bytes.Equal(v, vs[0]) {
				t.Errorf("block %s differs between replicas", k)
			}
		}
	}
}

// TestHDFSOverTCP checks the baseline over TCP, including its defining
// restriction: no append.
func TestHDFSOverTCP(t *testing.T) {
	h, err := cluster.StartHDFS(cluster.HDFSConfig{
		Datanodes: 3,
		BlockSize: int64(blockSize),
		UseTCP:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Stop()

	ctx := context.Background()
	fsys, err := h.NewFS("")
	if err != nil {
		t.Fatal(err)
	}
	w, err := fsys.Create(ctx, "/f", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(w, "immutable once written"); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Append(ctx, "/f"); !errors.Is(err, fs.ErrNoAppend) {
		t.Fatalf("HDFS append should return ErrNoAppend, got %v", err)
	}
	r, err := fsys.Open(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(r)
	r.Close()
	if string(got) != "immutable once written" {
		t.Fatalf("read back %q", got)
	}
}

// TestConcurrentAppendersOverTCP is Figure 5's pattern on the real
// stack: uncoordinated appenders, every block survives.
func TestConcurrentAppendersOverTCP(t *testing.T) {
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 4,
		BlockSize:     int64(blockSize),
		UseTCP:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()

	setup, err := cl.NewBSFS("")
	if err != nil {
		t.Fatal(err)
	}
	w, err := setup.Create(ctx, "/log", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	const appenders = 8
	var wg sync.WaitGroup
	errs := make(chan error, appenders)
	for i := 0; i < appenders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fsys, err := cl.NewBSFS("")
			if err != nil {
				errs <- err
				return
			}
			a, err := fsys.Append(ctx, "/log")
			if err != nil {
				errs <- err
				return
			}
			block := bytes.Repeat([]byte{byte('a' + i)}, blockSize)
			if _, err := a.Write(block); err != nil {
				errs <- err
				return
			}
			errs <- a.Close()
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	st, err := setup.Stat(ctx, "/log")
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != int64(appenders*blockSize) {
		t.Fatalf("final size %d, want %d", st.Size, appenders*blockSize)
	}
	// Each appender's block must be present, intact and uninterleaved.
	r, err := setup.Open(ctx, "/log")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[byte]int)
	for off := 0; off < len(data); off += blockSize {
		b := data[off]
		for i := 0; i < blockSize; i++ {
			if data[off+i] != b {
				t.Fatalf("block at %d interleaved: %c vs %c", off, b, data[off+i])
			}
		}
		seen[b]++
	}
	if len(seen) != appenders {
		t.Fatalf("want %d distinct appender blocks, got %d", appenders, len(seen))
	}
}

// TestMapReduceWordCountOverTCPStorage runs a full Map/Reduce job whose
// storage RPCs travel real TCP.
func TestMapReduceWordCountOverTCPStorage(t *testing.T) {
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 3,
		BlockSize:     4 * util.KB,
		UseTCP:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	fsFor := func(host string) (fs.FileSystem, error) { return cl.NewBSFS(host) }

	mr, err := cluster.StartMapRed(cluster.MapRedConfig{Trackers: 3, FSFor: fsFor})
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Stop()

	ctx := context.Background()
	fsys, err := fsFor("")
	if err != nil {
		t.Fatal(err)
	}
	w, err := fsys.Create(ctx, "/in/t.txt", true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := io.WriteString(w, "alpha beta alpha\n"); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	jt := mr.Client()
	id, err := jt.Submit(ctx, mapred.JobConf{
		Name:       "wc",
		App:        apps.WordCountApp,
		InputPaths: []string{"/in/t.txt"},
		OutputDir:  "/out",
		NumReduces: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := jt.Wait(ctx, id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != mapred.JobSucceeded {
		t.Fatalf("job failed: %s", st.Err)
	}

	var out strings.Builder
	entries, err := fsys.List(ctx, "/out")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		r, err := fsys.Open(ctx, e.Path)
		if err != nil {
			t.Fatal(err)
		}
		d, err := io.ReadAll(r)
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		out.Write(d)
	}
	if !strings.Contains(out.String(), "alpha\t4000") || !strings.Contains(out.String(), "beta\t2000") {
		t.Fatalf("wordcount output wrong:\n%s", out.String())
	}
}

// TestWriteAvoidsDeadProvider injects a provider failure: after the
// provider manager marks a provider dead, new writes land only on live
// providers and reads of new data succeed.
func TestWriteAvoidsDeadProvider(t *testing.T) {
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 3,
		BlockSize:     int64(blockSize),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()

	dead := cl.ProviderAddrs[1]
	cl.PMService().State().MarkDead(dead)

	client := cl.NewClient("")
	m, err := client.Create(ctx, int64(blockSize), 1)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{7}, 4*blockSize)
	v, err := appendBlob(ctx, client, m.ID, payload)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := pinBlob(ctx, client, m.ID, v)
	if err != nil {
		t.Fatal(err)
	}
	locs, err := snap.Locations(ctx, 0, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range locs {
		for _, a := range l.Providers {
			if a == dead {
				t.Fatalf("block [%d,+%d) placed on dead provider %s", l.Off, l.Len, dead)
			}
		}
	}
	got, err := readBlob(ctx, client, m.ID, v, 0, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("read-back mismatch after provider death")
	}
}

// TestCoDeployedClientStillBalanced: unlike HDFS's local-first policy,
// BlobSeer's round-robin ignores the writer's location, so a client
// co-deployed with provider 0 still spreads blocks across everyone —
// the root cause of the Figure 3(b) difference.
func TestCoDeployedClientStillBalanced(t *testing.T) {
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 4,
		BlockSize:     int64(blockSize),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()

	fsys, err := cl.NewBSFS(cl.HostOf(0)) // co-deployed writer
	if err != nil {
		t.Fatal(err)
	}
	w, err := fsys.Create(ctx, "/f", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(make([]byte, 8*blockSize)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	locs, err := fsys.Locations(ctx, "/f", 0, int64(8*blockSize))
	if err != nil {
		t.Fatal(err)
	}
	hosts := make(map[string]int)
	for _, l := range locs {
		for _, h := range l.Hosts {
			hosts[h]++
		}
	}
	if len(hosts) != 4 {
		t.Fatalf("round-robin should use all 4 providers, got %v", hosts)
	}
	for h, c := range hosts {
		if c != 2 {
			t.Errorf("host %s stores %d blocks, want 2 (%v)", h, c, hosts)
		}
	}
}

func TestClusterDefaults(t *testing.T) {
	cl, err := cluster.StartBlobSeer(cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	if len(cl.ProviderAddrs) != 4 || len(cl.MetaAddrs) != 2 {
		t.Fatalf("defaults: %d providers, %d metas", len(cl.ProviderAddrs), len(cl.MetaAddrs))
	}
	// Namespace, version and provider managers must be reachable.
	ctx := context.Background()
	fsys, err := cl.NewBSFS("")
	if err != nil {
		t.Fatal(err)
	}
	if err := fsys.Mkdirs(ctx, "/a/b/c"); err != nil {
		t.Fatal(err)
	}
	st, err := fsys.Stat(ctx, "/a/b/c")
	if err != nil || !st.IsDir {
		t.Fatalf("mkdirs round trip: %+v, %v", st, err)
	}
}

func TestHostOfNaming(t *testing.T) {
	cl, err := cluster.StartBlobSeer(cluster.Config{DataProviders: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	h, err := cluster.StartHDFS(cluster.HDFSConfig{Datanodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	for i := 0; i < 2; i++ {
		if cl.HostOf(i) != h.HostOf(i) {
			t.Fatalf("host naming must agree for co-deployment: %s vs %s", cl.HostOf(i), h.HostOf(i))
		}
		if want := fmt.Sprintf("host-%d", i); cl.HostOf(i) != want {
			t.Fatalf("HostOf(%d) = %s, want %s", i, cl.HostOf(i), want)
		}
	}
}
