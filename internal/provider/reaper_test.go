package provider

import (
	"bytes"
	"context"
	"os"
	"runtime"
	"testing"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/wire"
)

// The provider suite (chain, repair, reaper) runs with released buffers
// poisoned: a handler or store that kept a slice of a recycled frame
// reads 0xDB bytes back, and a double release panics.
func TestMain(m *testing.M) {
	wire.PoisonReleased(true)
	os.Exit(m.Run())
}

// shortTTL shortens the stale-upload TTL for one test. Registered
// first, so it is restored after every server of the test has stopped.
func shortTTL(t *testing.T, d time.Duration) {
	old := uploadTTL
	uploadTTL = d
	t.Cleanup(func() { uploadTTL = old })
}

func (s *Service) inflight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.uploads)
}

func (s *Service) counter(name string) int64 { return s.Metrics().Snapshot().Counters[name] }

// land writes one frame of transfer xfer locally, as a handler does,
// and records its downstream ack when acked: without it the frame is
// one whose ack never came.
func (s *Service) land(key blob.BlockKey, xfer uint64, ck wire.Chunk, acked bool) error {
	u, err := s.admit(key, xfer, ck.Total)
	if err != nil {
		return err
	}
	defer s.release(u)
	if err := u.write(xfer, ck); err != nil || !acked {
		return err
	}
	return s.finishFrame(key, u, xfer, ck)
}

// TestReaperAbortsAbandonedUpload: an upload whose writer died
// mid-chain is aborted after uploadTTL and counted.
func TestReaperAbortsAbandonedUpload(t *testing.T) {
	shortTTL(t, 30*time.Millisecond)
	_, _, svcs := chainCluster(t, 1)
	key := blob.BlockKey{Blob: 20, Nonce: 1}
	data := bytes.Repeat([]byte{9}, 4096)
	if err := svcs[0].land(key, 1, chunkOf(data, 0, 1024), false); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for svcs[0].inflight() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned upload never reaped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := svcs[0].counter("stale_upload_reaps"); n != 1 {
		t.Errorf("stale_upload_reaps = %d, want 1", n)
	}
	if st := svcs[0].Store().Stats(); st.Items != 0 {
		t.Errorf("reaped upload left %d items in the store", st.Items)
	}
}

// TestReaperSparesLiveTransfer: a transfer slower than uploadTTL in
// all, but never idle that long, is not reaped.
func TestReaperSparesLiveTransfer(t *testing.T) {
	shortTTL(t, 80*time.Millisecond)
	_, _, svcs := chainCluster(t, 1)
	key := blob.BlockKey{Blob: 21, Nonce: 1}
	data := bytes.Repeat([]byte{5}, 16*256)
	for off := 0; off < len(data); off += 256 { // 16 frames over ~4 TTLs
		ck := chunkOf(data, off, off+256)
		if err := svcs[0].land(key, 1, ck, true); err != nil {
			t.Fatalf("frame at %d: %v", off, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	got, err := svcs[0].Store().Get(key.String())
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("slow transfer stored %d bytes, %v", len(got), err)
	}
	if n := svcs[0].counter("stale_upload_reaps"); n != 0 {
		t.Errorf("stale_upload_reaps = %d for a live transfer", n)
	}
}

// TestCommittedUploadsPinNothing: a committed upload leaves no record,
// writer or tombstone behind — after 2,000 chained puts the heap holds
// as many objects as before them.
func TestCommittedUploadsPinNothing(t *testing.T) {
	wire.PoisonReleased(false) // 2,000 x 64 KB fills would dominate the test
	defer wire.PoisonReleased(true)
	c, addrs, svcs := chainCluster(t, 1)
	ctx := context.Background()
	data := bytes.Repeat([]byte{3}, 64<<10)
	put := func(i int) {
		// Eight keys in rotation: the store's own contents stay constant.
		key := blob.BlockKey{Blob: 22, Nonce: 1, Seq: uint32(i % 8)}
		if err := c.PutChained(ctx, addrs, key, data, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		put(i) // connections, free lists, map buckets
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 2000; i++ {
		put(i)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if n := svcs[0].inflight(); n != 0 {
		t.Errorf("uploads_inflight = %d after every put committed", n)
	}
	if grew := int64(after.HeapObjects) - int64(before.HeapObjects); grew > 500 {
		t.Errorf("heap grew by %d objects over 2,000 committed puts", grew)
	}
}
