package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/mdtree"
	"blobseer/internal/stream"
)

// These tests hold a streamed reader's metadata readahead (leafWindow)
// to its two promises: a cold stream fetches its leaves a window at a
// time, never in more batches than a batch per block, and what it
// prefetches never changes a byte it reads.

// stampedBlocks returns n blocks in which every aligned 8-byte word
// holds its own offset, so a byte of the wrong block is a mismatch
// wherever it lands.
func stampedBlocks(n int) []byte {
	d := make([]byte, int64(n)*pinBS)
	for off := 0; off < len(d); off += 8 {
		binary.LittleEndian.PutUint64(d[off:], uint64(off))
	}
	return d
}

// TestStreamLeafWindowBatches streams a 40-block snapshot through fresh
// clients whose node caches differ in size and counts the batches that
// reach the metadata store. The default cache takes one per window, the
// windows growing with the run; a cache whose shards hold fewer leaves
// takes smaller windows, or none; no client takes more than the batch
// per block a stream made before it read its leaves ahead, and neither
// does one without a cache.
func TestStreamLeafWindowBatches(t *testing.T) {
	poisonReleased(t)
	const blocks = 40
	mem := mdtree.NewMemStore()
	d := startMini(t, 2, mem)
	ctx := context.Background()
	w, err := pinClient(t, d, 0).CreateBlob(ctx, pinBS, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := stampedBlocks(blocks)
	if _, err := w.Append(ctx, data); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cache int   // MetaCacheSize
		want  int64 // batches; -1: at most one per block
	}{
		{cache: -1, want: 4},      // windows [0,4), [4,12), [12,32) and [32,40)
		{cache: 64, want: -1},     // 4 leaves a shard: windows of 4
		{cache: 32, want: -1},     // windows of 2
		{cache: 16, want: blocks}, // one leaf a shard: no window
		{cache: 0, want: blocks},  // no cache: no window
	} {
		c := pinClient(t, d, tc.cache)
		b, err := c.OpenBlob(ctx, w.ID())
		if err != nil {
			t.Fatal(err)
		}
		s, err := b.Latest(ctx)
		if err != nil {
			t.Fatal(err)
		}
		_, before := mem.BatchOps()
		r := s.NewReader(ctx, ReaderOptions{Readahead: 2})
		got, err := io.ReadAll(r)
		r.Close()
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("cache %d: streamed %d bytes, %v; not the blob's", tc.cache, len(got), err)
		}
		_, after := mem.BatchOps()
		switch n := after - before; {
		case tc.want >= 0 && n != tc.want:
			t.Errorf("cache %d: a cold stream of %d blocks took %d metadata batches, want %d", tc.cache, blocks, n, tc.want)
		case n > blocks:
			t.Errorf("cache %d: a cold stream of %d blocks took %d metadata batches, more than one per block", tc.cache, blocks, n)
		}
	}
}

// slowMeta holds each metadata batch up to a millisecond and gives up
// when its context ends, so that a reader's prefetch is often in flight
// when the reader seeks or closes.
type slowMeta struct{ mdtree.Store }

func (s slowMeta) GetBatch(ctx context.Context, ids []mdtree.NodeID) (map[mdtree.NodeID]mdtree.Node, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case <-time.After(time.Duration(rand.IntN(1000)) * time.Microsecond):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return s.Store.GetBatch(ctx, ids)
}

// failingMeta fails every metadata batch while fail is set.
type failingMeta struct {
	mdtree.Store
	fail *atomic.Bool
}

func (s failingMeta) GetBatch(ctx context.Context, ids []mdtree.NodeID) (map[mdtree.NodeID]mdtree.Node, error) {
	if s.fail.Load() {
		return nil, errors.New("metadata store down")
	}
	return s.Store.GetBatch(ctx, ids)
}

// TestFailedLeafPrefetchLeavesTheWindowUnset: a prefetch that fails
// caches nothing and leaves the window as it was, so the next fetch
// there tries again, and a fetch whose context has ended (a Seek or
// Close dropped it) fetches nothing ahead. Each prefetch counts a miss
// per leaf it sent for and one batch, and the reads a landed one served
// count a hit each and fetch nothing.
func TestFailedLeafPrefetchLeavesTheWindowUnset(t *testing.T) {
	mem := mdtree.NewMemStore()
	d := startMini(t, 2, mem)
	var fail atomic.Bool
	d.clientMeta = failingMeta{mem, &fail}
	ctx := context.Background()
	w, err := pinClient(t, d, 0).CreateBlob(ctx, pinBS, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := stampedBlocks(8)
	if _, err := w.Append(ctx, data); err != nil {
		t.Fatal(err)
	}
	c := pinClient(t, d, -1)
	b, err := c.OpenBlob(ctx, w.ID())
	if err != nil {
		t.Fatal(err)
	}
	s, err := b.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	lw := s.newLeafWindow(6) // a first window of 8 blocks
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	lw.cover(canceled, 3*pinBS)
	if st := c.MetaCacheStats(); st.Misses != 0 || st.BatchGets != 0 || lw.end != 0 {
		t.Fatalf("a fetch with an ended context prefetched: %+v, window [%d,%d)", st, lw.run, lw.end)
	}
	fail.Store(true)
	lw.cover(ctx, 3*pinBS)
	if lw.run != 0 || lw.end != 0 || c.MetaCacheStats().Size != 0 {
		t.Fatalf("a failed prefetch set the window to [%d,%d) and cached %d leaves", lw.run, lw.end, c.MetaCacheStats().Size)
	}
	fail.Store(false)
	lw.cover(ctx, 3*pinBS)
	if lw.run != 0 || lw.end != 8*pinBS {
		t.Fatalf("the window is [%d,%d), want the 8 blocks", lw.run, lw.end)
	}
	st := c.MetaCacheStats()
	if st.Misses != 16 || st.Hits != 0 || st.BatchGets != 2 || st.Size != 8 {
		t.Errorf("after a failed and a landed prefetch: %+v, want 16 misses, 2 batches, 8 leaves", st)
	}
	got := make([]byte, len(data))
	if _, err := s.ReadAt(got, 0); err != nil && err != io.EOF || !bytes.Equal(got, data) {
		t.Fatalf("read after the prefetch: %v", err)
	}
	if now := c.MetaCacheStats(); now.Hits != 8 || now.Misses != 16 || now.BatchGets != 2 {
		t.Errorf("the read the prefetch served: %+v, want 8 hits and nothing fetched", now)
	}
}

// TestShortStreamFetchesFewLeaves reads a text split the way a map task
// does (mapred's lineReader): a fresh client seeks to one byte before a
// block and reads on to the end of the next block. Before the leaf
// window its fetches sent for 5 leaves in 5 batches: the block before,
// the two the split reads, and the two the readahead of 2 fetches. Now
// the fetch after the seek sends for its block and the next 3 (the
// readahead that follows it) in one batch, and the last readahead
// fetch, which leaves that window, for at most 8 more in a second: at
// most 12 leaves in 2 batches, wherever the split starts. A fixed
// window of 32 blocks would send for 32 leaves, or 64 where the seek
// crossed its edge.
func TestShortStreamFetchesFewLeaves(t *testing.T) {
	const blocks = 80
	mem := mdtree.NewMemStore()
	d := startMini(t, 2, mem)
	ctx := context.Background()
	w, err := pinClient(t, d, 0).CreateBlob(ctx, pinBS, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := stampedBlocks(blocks)
	if _, err := w.Append(ctx, data); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int64{1, 5, 31, 32, 33, 64, 77} {
		c := pinClient(t, d, -1)
		b, err := c.OpenBlob(ctx, w.ID())
		if err != nil {
			t.Fatal(err)
		}
		s, err := b.Latest(ctx)
		if err != nil {
			t.Fatal(err)
		}
		r := s.NewReader(ctx, ReaderOptions{Readahead: 2})
		at := k*pinBS - 1
		if _, err := r.Seek(at, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 2*pinBS+1)
		if _, err := io.ReadFull(r, got); err != nil || !bytes.Equal(got, data[at:at+int64(len(got))]) {
			t.Fatalf("split at block %d: %v, or not the blob's bytes", k, err)
		}
		r.Close()
		if st := c.MetaCacheStats(); st.Misses > 12 || st.BatchGets > 2 {
			t.Errorf("split at block %d: a short stream sent for %d leaves in %d batches, want at most 12 in 2", k, st.Misses, st.BatchGets)
		}
	}
}

// TestStreamReadersAcrossLeafWindows runs two readers of one snapshot,
// each moved by two goroutines, across 4-block leaf windows of a cold
// client whose metadata batches are slow: reads and seeks cross window
// edges while a window's prefetch is in flight, and the first goroutine
// done closes its reader under the other. Released buffers and records
// are scribbled over (wire.PoisonReleased), and every byte read is
// checked against the stamp of its offset.
func TestStreamReadersAcrossLeafWindows(t *testing.T) {
	poisonReleased(t)
	const blocks = 48
	mem := mdtree.NewMemStore()
	d := startMini(t, 3, mem)
	d.clientMeta = slowMeta{mem}
	ctx := context.Background()
	w, err := pinClient(t, d, 0).CreateBlob(ctx, pinBS, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := stampedBlocks(blocks)
	if _, err := w.Append(ctx, data); err != nil {
		t.Fatal(err)
	}
	for round := uint64(0); round < 6; round++ {
		b, err := pinClient(t, d, 64).OpenBlob(ctx, w.ID()) // 4 leaves a shard: windows of 4 blocks
		if err != nil {
			t.Fatal(err)
		}
		s, err := b.Latest(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for k := uint64(0); k < 2; k++ {
			r := s.NewReader(ctx, ReaderOptions{Readahead: 3})
			var once sync.Once
			for h := uint64(0); h < 2; h++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					defer once.Do(func() { r.Close() })
					if err := readAcrossWindows(r, rand.New(rand.NewPCG(seed, 50)), data); err != nil {
						t.Error(err)
					}
				}(100*round + 10*k + h)
			}
		}
		wg.Wait()
	}
}

// readAcrossWindows reads r in 8-byte multiples and seeks it, now and
// then, to near a 4-block window's edge, checking each Read against the
// stamp it starts with: another goroutine moves r too. A reader closed
// under it ends the run.
func readAcrossWindows(r io.ReadSeeker, rng *rand.Rand, data []byte) error {
	const window = 4 * pinBS
	size := int64(len(data))
	p := make([]byte, pinBS+8)
	for step := 0; step < 40; step++ {
		n, err := r.Read(p[:8*(1+rng.IntN(len(p)/8))])
		if errors.Is(err, stream.ErrReaderClosed) {
			return nil
		}
		if err != nil && err != io.EOF {
			return err
		}
		if n > 0 {
			at := int64(binary.LittleEndian.Uint64(p))
			if n%8 != 0 || at%8 != 0 || at+int64(n) > size || !bytes.Equal(p[:n], data[at:at+int64(n)]) {
				return errors.New("a stream read returned bytes that are no range of the blob")
			}
		}
		if rng.IntN(4) == 0 { // to within a block of some window's edge
			edge := rng.Int64N(size/window+1) * window
			off := min(max(edge+(rng.Int64N(2*pinBS/8)-pinBS/8)*8, 0), size-8)
			if _, err := r.Seek(off, io.SeekStart); errors.Is(err, stream.ErrReaderClosed) {
				return nil
			} else if err != nil {
				return err
			}
		}
	}
	return nil
}

// blockingMeta holds every metadata batch while hold is set, until
// release closes, and says on entered when one is held.
type blockingMeta struct {
	mdtree.Store
	hold    *atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (s blockingMeta) GetBatch(ctx context.Context, ids []mdtree.NodeID) (map[mdtree.NodeID]mdtree.Node, error) {
	if s.hold.Load() {
		s.entered <- struct{}{}
		<-s.release
	}
	return s.Store.GetBatch(ctx, ids)
}

// TestLeafWindowWaiterLeavesOnCancel: no lock is held across a network
// wait in a way that traps a waiter. While one fetch's prefetch is held
// in the metadata store, a second fetch on the same window waits for
// it, and once its context is canceled (a Seek or Close dropped it) it
// returns at once instead of waiting for the stalled prefetch.
func TestLeafWindowWaiterLeavesOnCancel(t *testing.T) {
	mem := mdtree.NewMemStore()
	d := startMini(t, 2, mem)
	var hold atomic.Bool
	bm := blockingMeta{Store: mem, hold: &hold, entered: make(chan struct{}, 1), release: make(chan struct{})}
	d.clientMeta = bm
	ctx := context.Background()
	w, err := pinClient(t, d, 0).CreateBlob(ctx, pinBS, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(ctx, stampedBlocks(40)); err != nil {
		t.Fatal(err)
	}
	b, err := pinClient(t, d, -1).OpenBlob(ctx, w.ID())
	if err != nil {
		t.Fatal(err)
	}
	s, err := b.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	lw := s.newLeafWindow(2)
	hold.Store(true)
	first := make(chan struct{})
	go func() {
		defer close(first)
		lw.cover(ctx, 0)
	}()
	<-bm.entered // the first fetch's prefetch is in the store

	waiter, cancel := context.WithCancel(ctx)
	second := make(chan struct{})
	go func() {
		defer close(second)
		lw.cover(waiter, 20*pinBS)
	}()
	select {
	case <-second:
		t.Fatal("a fetch outside the window did not wait for the window's prefetch")
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case <-second:
	case <-time.After(100 * time.Millisecond):
		t.Error("a canceled fetch still waits for another fetch's stalled prefetch")
	}
	hold.Store(false)
	close(bm.release)
	<-first
	<-second
	if lw.run != 0 || lw.end == 0 {
		t.Errorf("the held prefetch set the window to [%d,%d)", lw.run, lw.end)
	}
}
