package provider

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/rpc"
	"blobseer/internal/store"
	"blobseer/internal/wire"
)

// serveTCP serves a provider over st on loopback TCP and returns its
// address, a dialer of it and the service.
func serveTCP(t *testing.T, st store.Store) (string, rpc.Dialer, *Service) {
	t.Helper()
	lis, err := rpc.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	svc := NewService(st)
	srv := rpc.NewServer(svc.Mux())
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	return lis.Addr().String(), rpc.TCPDialer, svc
}

// namedRanges are ranges of two blocks of 300,000 and 5,000 bytes: whole,
// short, at the end, from a negative offset, and more of them than one
// response holds files open for.
func namedRanges(k0, k1 blob.BlockKey) []Range {
	rs := []Range{
		{Key: k0, Off: 1_000, Dst: marked(200_000)},
		{Key: k1, Off: 4_000, Dst: marked(3_000)},
		{Key: k0, Off: 300_000, Dst: marked(10)},
		{Key: k1, Off: -5, Dst: marked(100)},
	}
	for i := 0; i < 2*maxFileTails; i++ {
		rs = append(rs, Range{Key: k1, Off: int64(100 * i), Dst: marked(50 + i)})
	}
	return rs
}

// TestGetByNameReturnsTheBytes: a client on a file:// provider's host
// reads every range from the block files and gets what a client on
// another host gets as bytes; the provider answers by name, and sends
// no block byte.
func TestGetByNameReturnsTheBytes(t *testing.T) {
	st := fileStore(t)
	k0, k1 := blob.BlockKey{Blob: 1, Nonce: 2}, blob.BlockKey{Blob: 1, Nonce: 2, Seq: 1}
	st.Put(k0.String(), pattern(300_000, 0))
	st.Put(k1.String(), pattern(5_000, 1))
	addr, dial, svc := serveTCP(t, st)
	ctx := context.Background()

	want := namedRanges(k0, k1)
	if err := clientOf(t, dial).GetRanges(ctx, addr, want); err != nil {
		t.Fatal(err)
	}
	out := svc.counter("bytes_out")
	if out == 0 || svc.counter("gets_by_name") != 0 {
		t.Fatalf("a client on another host: %d bytes out, %d gets by name", out, svc.counter("gets_by_name"))
	}
	got := namedRanges(k0, k1)
	if err := localClient(t, dial).GetRanges(ctx, addr, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].N != want[i].N || !bytes.Equal(got[i].Dst, want[i].Dst) {
			t.Fatalf("range %d read by name: %d bytes, want the %d the bytes path lands", i, got[i].N, want[i].N)
		}
	}
	if n := svc.counter("gets_by_name"); n != int64(len(got)) || svc.counter("bytes_out") != out {
		t.Errorf("reads by name: %d gets by name, %d bytes out (%d before); want %d and no byte", n, svc.counter("bytes_out"), out, len(got))
	}
	missing := []Range{{Key: k0, Dst: marked(10)}, {Key: blob.BlockKey{Blob: 9}, Dst: marked(10)}}
	if err := localClient(t, dial).GetRanges(ctx, addr, missing); rpc.CodeOf(err) != CodeNotFound {
		t.Errorf("a get by name with a missing block = %v, want CodeNotFound", err)
	}
}

// TestGetByNameConcurrent: gets by name of different blocks from
// several goroutines through one client, the first of them racing to
// check the provider's directory, each land their own block's bytes.
func TestGetByNameConcurrent(t *testing.T) {
	st := fileStore(t)
	addr, dial, svc := serveTCP(t, st)
	c := localClient(t, dial)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		key, data := blob.BlockKey{Blob: 1, Nonce: 8, Seq: uint32(g)}, pattern(100_000+g, g)
		st.Put(key.String(), data)
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]byte, len(data))
			for i := 0; i < 20; i++ {
				if n, err := c.GetInto(context.Background(), addr, key, 0, dst); err != nil || n != len(data) || !bytes.Equal(dst, data) {
					t.Errorf("get %d of block %d = %d, %v", i, key.Seq, n, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := svc.counter("gets_by_name"); n != 8*20 {
		t.Errorf("%d gets by name, want all %d", n, 8*20)
	}
}

// deleting is a file:// store whose block files are deleted just after
// the provider counts them.
type deleting struct{ *store.FSStore }

func (s deleting) Size(key []byte) (int64, error) {
	n, err := s.FSStore.Size(key)
	s.FSStore.Delete(string(key))
	return n, err
}

// TestGetByNameOfADeletedFile: a block file deleted between the
// provider's count and the client's open is a missing block, as the
// provider's not-found is (core fails over from either alike), and the
// client still reads that provider by name.
func TestGetByNameOfADeletedFile(t *testing.T) {
	st := deleting{fileStore(t)}
	key := blob.BlockKey{Blob: 1, Nonce: 3}
	addr, dial, svc := serveTCP(t, st)
	c, ctx := localClient(t, dial), context.Background()
	for i := range 2 {
		st.Put(key.String(), pattern(1_000, 0))
		dst := marked(1_000)
		if _, err := c.GetInto(ctx, addr, key, 0, dst); !errors.Is(err, ErrBlockNotFound) {
			t.Fatalf("get %d of a file deleted after its count = %v, want ErrBlockNotFound", i, err)
		}
	}
	if n := svc.counter("gets_by_name"); n != 2 {
		t.Errorf("%d gets by name, want 2: a missing file does not turn the client to bytes", n)
	}
}

// wrongDir is a file:// store that names its directory with another
// inode than the directory has.
type wrongDir struct{ *store.FSStore }

func (s wrongDir) Dir() (string, uint64, uint64) {
	dir, dev, ino := s.FSStore.Dir()
	return dir, dev, ino + 1
}

// TestGetByNameFallsBackToBytes: a directory whose identity this host
// does not confirm has the call asked again for bytes, which land; the
// client remembers, and asks that provider for bytes from then on.
func TestGetByNameFallsBackToBytes(t *testing.T) {
	st := wrongDir{fileStore(t)}
	key, data := blob.BlockKey{Blob: 1, Nonce: 4}, pattern(70_000, 3)
	st.Put(key.String(), data)
	addr, dial, svc := serveTCP(t, st)
	c, ctx := localClient(t, dial), context.Background()
	for i := range 3 {
		dst := marked(len(data))
		if n, err := c.GetInto(ctx, addr, key, 0, dst); err != nil || n != len(data) || !bytes.Equal(dst, data) {
			t.Fatalf("get %d = %d, %v; want the block", i, n, err)
		}
	}
	if named, block := svc.counter("ops_get_named"), svc.counter("ops_get_block"); named != 1 || block != 3 {
		t.Errorf("%d by-name and %d bytes calls, want the first by name and every get as bytes", named, block)
	}
}

// TestGetFromAnotherHostIsBytes: a client whose connection shows the
// provider on another host asks for bytes.
func TestGetFromAnotherHostIsBytes(t *testing.T) {
	st := fileStore(t)
	key, data := blob.BlockKey{Blob: 1, Nonce: 5}, pattern(10_000, 4)
	st.Put(key.String(), data)
	addr, dial, svc := serveTCP(t, st)
	dst := marked(len(data))
	if n, err := clientOf(t, dial).GetInto(context.Background(), addr, key, 0, dst); err != nil || n != len(data) || !bytes.Equal(dst, data) {
		t.Fatalf("get = %d, %v", n, err)
	}
	if named, block := svc.counter("ops_get_named"), svc.counter("ops_get_block"); named != 0 || block != 1 {
		t.Errorf("%d by-name and %d bytes calls, want one bytes call", named, block)
	}
}

// TestMemProviderAnswersNamedWithBytes: a mem:// provider on the
// client's host answers the by-name call with the bytes, one call per
// get as before, and the client asks it for bytes from then on.
func TestMemProviderAnswersNamedWithBytes(t *testing.T) {
	st := store.NewMemStore()
	key, data := blob.BlockKey{Blob: 1, Nonce: 6}, pattern(10_000, 5)
	st.Put(key.String(), data)
	addr, dial, svc := serveTCP(t, st)
	c := localClient(t, dial)
	for i := range 3 {
		dst := marked(len(data))
		if n, err := c.GetInto(context.Background(), addr, key, 0, dst); err != nil || n != len(data) || !bytes.Equal(dst, data) {
			t.Fatalf("get %d = %d, %v", i, n, err)
		}
	}
	named, block, out := svc.counter("ops_get_named"), svc.counter("ops_get_block"), svc.counter("bytes_out")
	if named != 1 || block != 2 || out != int64(3*len(data)) || svc.counter("gets_by_name") != 0 {
		t.Errorf("%d by-name and %d bytes calls sending %d bytes, want the first by name, the rest as bytes, sending %d", named, block, out, 3*len(data))
	}
}

// TestReplicateCopiesNoBlock: a provider pushes a 1 MB block it stores
// without a copy of its own: a mem:// store lends it, a file:// store
// reads it into a recycled buffer. The target stores to files, which
// takes no payload-sized memory either.
func TestReplicateCopiesNoBlock(t *testing.T) {
	wire.PoisonReleased(false) // the poison bookkeeping allocates
	defer wire.PoisonReleased(true)
	for name, src := range map[string]store.Store{"mem": store.NewMemStore(), "file": fileStore(t)} {
		c, addrs, _ := providersOver(t, src, fileStore(t))
		ctx, key, data := context.Background(), blob.BlockKey{Blob: 1, Nonce: 7}, pattern(1<<20, 6)
		src.Put(key.String(), data)
		push := func() {
			if err := c.Replicate(ctx, addrs[0], key, addrs[1:]); err != nil {
				t.Fatal(err)
			}
		}
		push() // fill the free lists
		const pushes = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range pushes {
			push()
		}
		runtime.ReadMemStats(&after)
		if perByte := float64(after.TotalAlloc-before.TotalAlloc) / pushes / float64(len(data)); perByte >= 0.05 {
			t.Errorf("%s: replicating a 1 MB block allocates %.3f B per byte, want under 0.05", name, perByte)
		}
	}
}

// FuzzNamedReply: the client's decoder of an answer by name accepts only
// an absolute, clean directory and counts that fit their ranges, and the
// file a range is read from is then the key's, right in that directory.
func FuzzNamedReply(f *testing.F) {
	reply := func(dir string, counts ...uint32) []byte {
		b := binary.BigEndian.AppendUint32(nil, uint32(len(dir)))
		b = binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(append(b, dir...), 1), 2)
		for _, n := range counts {
			b = binary.BigEndian.AppendUint32(b, n)
		}
		return b
	}
	f.Add(reply("/var/blocks", 10, 0))
	f.Add(reply("/", 1, 2))
	f.Add(reply("var/blocks", 10, 0))       // relative
	f.Add(reply("/var/../etc", 10, 0))      // unclean
	f.Add(reply("/var/blocks/", 10, 0))     // unclean
	f.Add(reply("/var/blocks\x00/x", 1, 0)) // a NUL
	f.Add(reply("/var/blocks", 11, 0))      // a count its range does not hold
	f.Add(reply("/var/blocks", 1))          // too few counts
	f.Add(append(reply("/var/blocks", 1, 1), 0))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, reply []byte) {
		rs := []Range{{Key: blob.BlockKey{Blob: 1, Nonce: 0xab}, Dst: make([]byte, 10)}, {Key: blob.BlockKey{Blob: 2, Seq: 3}}}
		dir, _, _, ok := parseNamed(reply, rs)
		if !ok {
			return
		}
		d := string(dir)
		if !filepath.IsAbs(d) || filepath.Clean(d) != d || strings.ContainsRune(d, 0) {
			t.Fatalf("accepted the directory %q", d)
		}
		for i, r := range rs {
			if r.N < 0 || r.N > len(r.Dst) {
				t.Fatalf("range %d accepted a count of %d for %d bytes", i, r.N, len(r.Dst))
			}
			name := store.AppendFileName(nil, d, r.Key.AppendText(nil))
			file := string(name[:len(name)-1])
			if name[len(name)-1] != 0 || filepath.Dir(file) != d || filepath.Base(file) != hex.EncodeToString([]byte(r.Key.String())) {
				t.Fatalf("range %d reads %q, not its key's file in %q", i, name, d)
			}
		}
	})
}
