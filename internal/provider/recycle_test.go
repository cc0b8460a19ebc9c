package provider

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/store"
	"blobseer/internal/wire"
)

// TestWarmPutAllocatesBlockAndKey: a warm one-frame chained put on a
// mem:// provider allocates what the store keeps, the block and its key,
// and nothing else: its upload record and block writer are recycled. It
// was 4 while each put made both.
func TestWarmPutAllocatesBlockAndKey(t *testing.T) {
	wire.PoisonReleased(false) // the poison bookkeeping allocates
	defer wire.PoisonReleased(true)
	svc := NewService(store.NewMemStore())
	data := bytes.Repeat([]byte{5}, 64<<10)
	var payloads [8][]byte // eight keys in rotation: the store's map stops growing
	for i := range payloads {
		payloads[i] = chainedPayload(blob.BlockKey{Blob: 3, Nonce: 1, Seq: uint32(i)}, 0, nil, chunkOf(data, 0, len(data)))
	}
	var n uint64
	put := func() {
		n++
		p := payloads[n%8]
		binary.BigEndian.PutUint64(p[20:], n) // a fresh transfer each put
		if _, err := svc.handlePutChained(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	for range 16 {
		put()
	}
	if a := testing.AllocsPerRun(200, put); a != 2 {
		t.Errorf("a warm one-frame put allocates %v times, want 2: the block and its key", a)
	}
}

// TestMultiFrameBlockAllocatedOnce: a block of many frames is allocated
// once at its size, in whatever order its frames land: appending frame
// after frame allocated 5x a 64 MB block. Its bytes are the transfer's.
func TestMultiFrameBlockAllocatedOnce(t *testing.T) {
	for _, tc := range []struct {
		name          string
		frames, frame int
		reverse       bool
	}{
		{"16x64KB", 16, 64 << 10, false},
		{"16x64KB-reversed", 16, 64 << 10, true},
		{"64x1MB", 64, DefaultFrameSize, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := NewService(store.NewMemStore())
			key := blob.BlockKey{Blob: 4, Nonce: 1}
			var stamp [4093]byte // a prime length: no two frames alike
			for i := range stamp {
				stamp[i] = byte(i)
			}
			n := tc.frames * tc.frame
			data := bytes.Repeat(stamp[:], n/len(stamp)+1)[:n]
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := range tc.frames {
				if tc.reverse {
					i = tc.frames - 1 - i
				}
				ck := chunkOf(data, i*tc.frame, (i+1)*tc.frame)
				if err := svc.putFrame(context.Background(), key, 1, nil, ck); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; float64(got) > 1.05*float64(len(data)) {
				t.Errorf("a %d-frame block of %d bytes allocated %d bytes, want at most 1.05x", tc.frames, len(data), got)
			}
			got, err := svc.Store().Get(key.String())
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("stored %d bytes, %v; want the block's %d", len(got), err, len(data))
			}
		})
	}
}

// TestTombstonesPruneInTimeOrder: burying pops the expired tombstones
// off the front of the burials instead of scanning them all, so 50,000
// burials inside one window take milliseconds (28 s while every burial
// scanned the map; the best of three tries counts), and expiry is as
// before: a tombstone refuses for two upload TTLs, then stops, and a key
// buried again keeps its newer time.
func TestTombstonesPruneInTimeOrder(t *testing.T) {
	var ts tombstones[uint64]
	t0 := time.Now()
	best := time.Hour
	for range 3 {
		ts = tombstones[uint64]{}
		start := time.Now()
		for i := range uint64(50_000) {
			ts.bury(i, t0.Add(time.Duration(i)*time.Microsecond))
		}
		best = min(best, time.Since(start))
	}
	if best > 100*time.Millisecond {
		t.Errorf("50,000 burials took %v, want under 100ms", best)
	}
	last := t0.Add(50_000 * time.Microsecond)
	if !ts.has(0, last) || !ts.has(49_999, last) {
		t.Fatal("a tombstone inside its window does not refuse")
	}
	expiry := 2 * uploadTTL
	if ts.has(0, t0.Add(expiry+time.Nanosecond)) {
		t.Error("an expired tombstone still refuses")
	}
	if !ts.has(0, t0.Add(expiry)) {
		t.Error("a tombstone stopped refusing before two upload TTLs")
	}

	var re tombstones[string]
	re.bury("a", t0)
	re.bury("b", t0.Add(time.Second))
	re.bury("a", t0.Add(2*time.Second)) // buried again: keeps its newer time
	later := t0.Add(time.Second + expiry + time.Nanosecond)
	re.bury("c", later)
	if re.has("b", later) {
		t.Error("an expired tombstone still refuses after a burial")
	}
	if !re.has("a", later) || !re.has("c", later) {
		t.Error("a fresh tombstone does not refuse")
	}
	if len(re.at) != 2 || len(re.order) != 2 {
		t.Errorf("%d tombstones and %d burials kept after all but two expired, want 2 and 2", len(re.at), len(re.order))
	}
}

// TestDeleteWriteTombstoneExpires: a garbage-collected write's frames are
// refused for two upload TTLs, then taken again.
func TestDeleteWriteTombstoneExpires(t *testing.T) {
	shortTTL(t, 20*time.Millisecond)
	svc := NewService(store.NewMemStore())
	key := blob.BlockKey{Blob: 5, Nonce: 9}
	var req [16]byte
	binary.BigEndian.PutUint64(req[:], uint64(key.Blob))
	binary.BigEndian.PutUint64(req[8:], key.Nonce)
	if _, err := svc.handleDeleteWrite(context.Background(), req[:]); err != nil {
		t.Fatal(err)
	}
	ck := chunkOf([]byte("block"), 0, 5)
	if err := svc.putFrame(context.Background(), key, 1, nil, ck); err == nil {
		t.Fatal("a frame of a write just garbage-collected was taken")
	}
	time.Sleep(2*uploadTTL + 10*time.Millisecond)
	if err := svc.putFrame(context.Background(), key, 2, nil, ck); err != nil {
		t.Fatalf("a frame after the tombstone expired: %v", err)
	}
}

// TestReleasedUploadFailsLoudly: under wire.PoisonReleased a released
// upload record is scribbled over, so a frame handler that kept one
// past its hold panics instead of landing a frame in it; a reused record
// is reset first, and a stale holder of it panics too.
func TestReleasedUploadFailsLoudly(t *testing.T) {
	svc := NewService(store.NewMemStore())
	data := []byte("0123456789abcdef")
	k1, k2 := blob.BlockKey{Blob: 6, Nonce: 1}, blob.BlockKey{Blob: 6, Nonce: 2}
	u, err := svc.admit(k1, 1, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	ck := chunkOf(data, 0, len(data))
	if err := u.write(1, ck); err != nil {
		t.Fatal(err)
	}
	if err := svc.finishFrame(k1, u, 1, ck); err != nil {
		t.Fatal(err)
	}
	svc.release(u) // the handler's hold: the record is free
	mustPanic(t, "a frame into a released record", func() { _ = u.write(1, ck) })

	u2, err := svc.admit(k2, 2, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if u2 != u {
		t.Fatal("the next upload did not reuse the released record")
	}
	if err := u2.write(2, chunkOf(data, 0, 8)); err != nil {
		t.Fatalf("the reused record, reset: %v", err)
	}
	mustPanic(t, "a frame into a reused record", func() { _ = svc.finishFrame(k1, u, 1, ck) })
	svc.failTransfer(k2, 2)
	svc.release(u2)
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestRecycledUploadsRaceACommit races everything that takes an upload
// out of the table against its commit, on records recycled under them:
// some blocks' transfers send every frame twice at once, a second
// transfer supersedes some, a DeleteWrite garbage-collects some writes,
// and the reaper aborts uploads idle past a 10 ms TTL. Released records
// are scribbled over (wire.PoisonReleased), so a handler that landed a
// frame in a record it no longer held would panic or store another
// transfer's bytes. Every block stored must be exactly the bytes of one
// transfer all of whose frames were acked, and a collected write stores
// nothing, unless one of its frames was still in a handler when the
// DeleteWrite's tombstone expired.
func TestRecycledUploadsRaceACommit(t *testing.T) {
	shortTTL(t, 10*time.Millisecond)
	svc := NewService(store.NewMemStore())
	t.Cleanup(func() {
		svc.mu.Lock()
		if svc.reaper != nil {
			svc.reaper.Stop()
		}
		svc.mu.Unlock()
	})
	const blocks, frameLen, nFrames = 96, 256, 4
	type transfer struct {
		xfer  uint64
		data  []byte
		acked [nFrames]atomic.Bool
	}
	type outcome struct {
		key       blob.BlockKey
		xfers     []*transfer
		collected bool

		mu       sync.Mutex
		deleting time.Time // when the DeleteWrite was sent
		lastDone time.Time // when the last frame's handler returned
	}
	outcomes := make([]*outcome, blocks)
	var wg sync.WaitGroup
	for b := range blocks {
		o := &outcome{key: blob.BlockKey{Blob: 7, Nonce: uint64(b)}, collected: b%8 >= 6}
		outcomes[b] = o
		for x := range 1 + b%2 { // odd blocks: a second transfer supersedes
			data := bytes.Repeat([]byte{byte(2*b + x)}, nFrames*frameLen)
			o.xfers = append(o.xfers, &transfer{xfer: uint64(1000*b + x + 1), data: data})
		}
		copies := 1 + b%4/2 // blocks 0 and 1 of every 4: each frame sent twice at once
		for x, tr := range o.xfers {
			for f := range nFrames {
				for c := range copies {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if (b+f+c)%3 == 0 {
							time.Sleep(time.Duration(x+f+1) * 5 * time.Millisecond) // some go idle past the TTL
						}
						p := chainedPayload(o.key, tr.xfer, nil, chunkOf(tr.data, f*frameLen, (f+1)*frameLen))
						if _, err := svc.handlePutChained(context.Background(), p); err == nil {
							tr.acked[f].Store(true)
						}
						o.mu.Lock()
						if now := time.Now(); now.After(o.lastDone) {
							o.lastDone = now
						}
						o.mu.Unlock()
					}()
				}
			}
		}
		if o.collected {
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(12 * time.Millisecond) // amid the sleepy frames
				var req [16]byte
				binary.BigEndian.PutUint64(req[:], uint64(o.key.Blob))
				binary.BigEndian.PutUint64(req[8:], o.key.Nonce)
				o.mu.Lock()
				o.deleting = time.Now()
				o.mu.Unlock()
				if _, err := svc.handleDeleteWrite(context.Background(), req[:]); err != nil {
					t.Error(err)
				}
			}()
		}
	}
	wg.Wait()
	commits, collected := 0, 0
	for _, o := range outcomes {
		var whole []*transfer // transfers with every frame acked
		for _, tr := range o.xfers {
			n := 0
			for f := range tr.acked {
				if tr.acked[f].Load() {
					n++
				}
			}
			if n == nFrames {
				whole = append(whole, tr)
			}
		}
		got, err := svc.Store().Get(o.key.String())
		switch {
		case err == store.ErrNotFound:
		case err != nil:
			t.Fatal(err)
		case o.collected:
			if o.lastDone.Before(o.deleting.Add(2 * uploadTTL)) {
				t.Errorf("block %s of a collected write stored %s", o.key, describe(got))
			}
		default:
			commits++
			found := false
			for _, tr := range whole {
				found = found || bytes.Equal(got, tr.data)
			}
			if !found {
				t.Errorf("block %s stored %s, no whole transfer's bytes", o.key, describe(got))
			}
		}
	}
	for _, o := range outcomes {
		if o.collected && o.lastDone.Before(o.deleting.Add(2*uploadTTL)) {
			collected++
		}
	}
	t.Logf("%d of %d blocks stored, %d commits in all; %d collected writes checked", commits, blocks, svc.counter("chain_commits"), collected)
	if commits == 0 {
		t.Error("no block committed: the race raced nothing")
	}
}

// describe summarizes a stored block for a failure message.
func describe(b []byte) string {
	if len(b) == 0 {
		return "nothing"
	}
	return fmt.Sprintf("%d bytes starting %#x", len(b), b[0])
}
