package hdfs_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"sync/atomic"
	"testing"

	"blobseer/internal/cluster"
	"blobseer/internal/fs"
	"blobseer/internal/hdfs"
	"blobseer/internal/rpc"
	"blobseer/internal/wire"
)

// The baseline's client sits on recycled frames and block buffers
// (stream, rpc.Pool.Call, PutChained, GetInto), so its whole suite runs
// with released buffers poisoned (see internal/rpc/ownership_test.go):
// a use after release reads back as 0xDB bytes or a short buffer.
func TestMain(m *testing.M) {
	wire.PoisonReleased(true)
	os.Exit(m.Run())
}

// countingConn counts the bytes its side writes.
type countingConn struct {
	net.Conn
	sent *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Add(int64(n))
	return n, err
}

// TestPipelineClientEgress: the client sends each block once, to the
// head of the namenode's target list, and the datanodes forward it — so
// N blocks at replication 3 cost the client about N blocks of egress,
// namenode calls included, and every datanode ends up with every block.
func TestPipelineClientEgress(t *testing.T) {
	const blocks = 8
	h, err := cluster.StartHDFS(cluster.HDFSConfig{Datanodes: 3, BlockSize: 16 * B, Replication: 3, UseTCP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	var sent atomic.Int64
	pool := rpc.NewPool(func(addr string) (net.Conn, error) {
		conn, err := rpc.TCPDialer(addr)
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: conn, sent: &sent}, nil
	})
	defer pool.Close()
	f, err := hdfs.New(hdfs.Config{Pool: pool, NNAddr: h.NNAddr, BlockSize: h.Cfg.BlockSize, Replication: 3})
	if err != nil {
		t.Fatal(err)
	}
	data := pattern('e', blocks*16*B)
	writeFile(t, f, "/egress", data)
	if got, limit := sent.Load(), int64(len(data))*11/10; got > limit {
		t.Errorf("client wrote %d bytes for a %d-byte file at replication 3, want <= %d", got, len(data), limit)
	}
	for _, addr := range h.DatanodeAddrs {
		if st := h.DatanodeService(addr).Store().Stats(); st.Items != blocks || st.Bytes != int64(len(data)) {
			t.Errorf("datanode %s holds %d blocks (%d bytes), want %d (%d)", addr, st.Items, st.Bytes, blocks, len(data))
		}
	}
}

// TestSeekStormWithFailover: random seeks and reads of every size
// through the readahead window, with one of two replicas gone, return
// the file's bytes — whichever recycled buffer they passed through.
func TestSeekStormWithFailover(t *testing.T) {
	h, err := cluster.StartHDFS(cluster.HDFSConfig{Datanodes: 3, BlockSize: B, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	f, _ := h.NewFS("")
	data := pattern('s', 9*B+123)
	writeFile(t, f, "/storm", data)
	h.DatanodeService(h.DatanodeAddrs[1]).Store().DeletePrefix("")
	r, err := f.Open(context.Background(), "/storm")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		off := rng.Int63n(int64(len(data)))
		buf := make([]byte, 1+rng.Intn(3*B))
		if _, err := r.Seek(off, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		n, err := io.ReadFull(r, buf)
		if err != nil && err != io.ErrUnexpectedEOF {
			t.Fatalf("read %d at %d: %v", len(buf), off, err)
		}
		if want := data[off:min(off+int64(len(buf)), int64(len(data)))]; !bytes.Equal(buf[:n], want) {
			t.Fatalf("read %d at %d: %d bytes, mismatch", len(buf), off, n)
		}
	}
}

// TestWriteBehindKeepsBlockOrder: block n+1 buffers while block n is in
// the pipeline, yet one commit worker keeps AddBlock/CompleteBlock in
// file order, which is all the namenode accepts.
func TestWriteBehindKeepsBlockOrder(t *testing.T) {
	const blocks = 32
	f, _ := startHDFS(t, cluster.HDFSConfig{Datanodes: 4})
	ctx := context.Background()
	data := pattern('o', blocks*B)
	w, err := f.Create(ctx, "/ordered", true)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); off += 4096 {
		if _, err := w.Write(data[off : off+4096]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	locs, err := f.Locations(ctx, "/ordered", 0, int64(len(data)))
	if err != nil || len(locs) != blocks {
		t.Fatalf("Locations = %d blocks, %v; want %d", len(locs), err, blocks)
	}
	for i, l := range locs {
		if l.Off != int64(i)*B || l.Len != B {
			t.Errorf("block %d = [%d,+%d)", i, l.Off, l.Len)
		}
	}
	r, err := f.Open(ctx, "/ordered")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, err := io.ReadAll(r); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back %d bytes, %v: mismatch", len(got), err)
	}
}

// TestBackgroundCommitErrorIsLatched: once a block commit fails behind
// the application's back, Write reports it and so does every Close —
// the file is never sealed over a hole.
func TestBackgroundCommitErrorIsLatched(t *testing.T) {
	f, _ := startHDFS(t, cluster.HDFSConfig{Datanodes: 2})
	ctx, cancel := context.WithCancel(context.Background())
	w, err := f.Create(ctx, "/broken", true)
	if err != nil {
		t.Fatal(err)
	}
	cancel() // every commit from here on fails, in the background
	var werr error
	// The window holds 2 blocks and one is with the worker: the error is
	// latched before a fifth can be queued.
	for i := 0; i < 8 && werr == nil; i++ {
		_, werr = w.Write(pattern('x', B))
	}
	if !errors.Is(werr, context.Canceled) {
		t.Fatalf("Write after a failed background commit = %v, want the commit's error", werr)
	}
	for i := 0; i < 2; i++ {
		if err := w.Close(); !errors.Is(err, context.Canceled) {
			t.Errorf("Close #%d = %v, want the latched commit error", i+1, err)
		}
	}
	if _, err := w.Write([]byte("x")); !errors.Is(err, context.Canceled) || errors.Is(err, fs.ErrWriterClosed) {
		t.Errorf("Write after the failed Close = %v, want the latched commit error", err)
	}
}
