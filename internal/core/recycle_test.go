package core_test

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/bsfs"
	"blobseer/internal/cluster"
	"blobseer/internal/core"
	"blobseer/internal/mdtree"
	"blobseer/internal/namespace"
	"blobseer/internal/stream"
	"blobseer/internal/wire"
)

// stamped returns n bytes in which every aligned 8-byte word holds its
// own offset, so that a byte read from the wrong block, or from a buffer
// recycled under the read, is a mismatch wherever it lands.
func stamped(n int) []byte {
	d := make([]byte, n+8)
	for off := 0; off < n; off += 8 {
		binary.LittleEndian.PutUint64(d[off:], uint64(off))
	}
	return d[:n]
}

// TestRecycledReadRecordsStayInTheirCall holds the read path's recycled
// records — a client's read working sets and node-cache flights, a
// stream reader's block loads — to their calls. Eight goroutines share
// one snapshot and mix overlapping reads of 1–3 blocks (so 1–3
// providers) with layout queries, through a node cache far smaller than
// the tree, so calls keep joining each other's flights. Meanwhile two
// BSFS readers on the same client seek backward and forward and close
// with prefetches in flight. Released records and buffers are
// scribbled over (wire.PoisonReleased), so a holder that outlived one
// reads garbage: every byte is checked against the stamp and every
// location against a fresh walk of the tree.
func TestRecycledReadRecordsStayInTheirCall(t *testing.T) {
	wire.PoisonReleased(true)
	t.Cleanup(func() { wire.PoisonReleased(false) })
	const blocks, path = 48, "/r/data"
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 3,
		MetaProviders: 2,
		BlockSize:     B,
		MetaCacheSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()
	fsys, err := bsfs.New(bsfs.Config{
		Core:            cl.NewClient(""),
		NS:              namespace.NewClient(cl.Pool, cl.NSAddr),
		BlockSize:       B,
		Replication:     1,
		ReadaheadBlocks: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := stamped(blocks * B)
	w, err := fsys.Create(ctx, path, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	bh, err := fsys.OpenBlob(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := bh.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	size := s.Size()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 8))
			buf := make([]byte, 2*B)
			for i := 0; i < 120; i++ {
				n := 1 + rng.Int64N(2*B)
				off := rng.Int64N(size - n)
				if i%4 == 3 {
					if err := checkLocations(ctx, cl, s, off, n); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				if _, err := s.ReadAt(buf[:n], off); err != nil && err != io.EOF {
					t.Errorf("ReadAt [%d,+%d): %v", off, n, err)
					return
				}
				if !slices.Equal(buf[:n], data[off:off+n]) {
					t.Errorf("ReadAt [%d,+%d) read bytes of another range", off, n)
					return
				}
			}
		}(g)
	}
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for round := 0; round < 12; round++ {
				r, err := fsys.Open(ctx, path)
				if err != nil {
					t.Error(err)
					return
				}
				// Two goroutines read and seek the one reader, so a Read can
				// wait on a load another Read or a Seek drops; the first done
				// closes it under the other, prefetches in flight.
				var once sync.Once
				var both sync.WaitGroup
				for h := 0; h < 2; h++ {
					both.Add(1)
					go func(seed uint64) {
						defer both.Done()
						defer once.Do(func() { r.Close() })
						if err := seekAndRead(r, rand.New(rand.NewPCG(seed, 2)), data); err != nil {
							t.Error(err)
						}
					}(uint64(100*k + 10*round + h))
				}
				both.Wait()
			}
		}(k)
	}
	wg.Wait()
}

// seekAndRead reads r in 8-byte multiples, seeking backward and forward
// to 8-byte boundaries now and then, and checks what each Read returns
// against data. Another goroutine moves r too, so a read's position is
// the stamp it starts with. A reader closed under it ends the run.
func seekAndRead(r io.ReadSeeker, rng *rand.Rand, data []byte) error {
	size := int64(len(data))
	p := make([]byte, B/2+8)
	for step := 0; step < 16; step++ {
		n, err := r.Read(p)
		if errors.Is(err, stream.ErrReaderClosed) {
			return nil
		}
		if err != nil && err != io.EOF {
			return err
		}
		if n > 0 {
			at := int64(binary.LittleEndian.Uint64(p))
			if n%8 != 0 || at%8 != 0 || at+int64(n) > size || !slices.Equal(p[:n], data[at:at+int64(n)]) {
				return errors.New("a stream read returned bytes that are no range of the file")
			}
		}
		switch rng.IntN(3) {
		case 0: // anywhere, mostly backward
			_, err = r.Seek(rng.Int64N(size/8)*8, io.SeekStart)
		case 1: // forward, into the window or past it
			_, err = r.Seek(rng.Int64N(5*B/8)*8, io.SeekCurrent)
		default:
			err = nil
		}
		if errors.Is(err, stream.ErrReaderClosed) {
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// checkLocations compares the snapshot's layout of [off, off+n) with a
// fresh walk of its tree in the metadata store.
func checkLocations(ctx context.Context, cl *cluster.BlobSeer, s *core.Snapshot, off, n int64) error {
	locs, err := s.Locations(ctx, off, n)
	if err != nil {
		return err
	}
	want, err := mdtree.Resolve(ctx, cl.MetaStore, s.Blob().Meta(), s.Version(), s.Size(), blob.Range{Off: off, Len: n})
	if err != nil {
		return err
	}
	if len(locs) != len(want) {
		return errors.New("Locations and a fresh resolve disagree on the extent count")
	}
	for i, e := range want {
		l := locs[i]
		if l.Off != e.FileOff || l.Len != e.Len || !slices.Equal(l.Providers, e.Block.Providers) || len(l.Hosts) != len(l.Providers) {
			return errors.New("Locations and a fresh resolve disagree on an extent")
		}
	}
	return nil
}
