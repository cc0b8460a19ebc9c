package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/rpc"
	"blobseer/internal/util"
	"blobseer/internal/vmanager"
)

// TestChaosVManagerKillRestart is the PR's acceptance test: concurrent
// writers keep appending to one blob while the version manager is
// killed and restarted repeatedly. Every write the client saw
// acknowledged (Commit returned nil) must be readable afterwards —
// the publication line survives every crash.
func TestChaosVManagerKillRestart(t *testing.T) {
	cfg := Config{
		DataProviders: 4,
		MetaProviders: 2,
		BlockSize:     64 * util.KB,
		DataDir:       t.TempDir(),
		WriteTimeout:  2 * time.Second,
		CallTimeout:   2 * time.Second,
	}
	c, err := StartBlobSeer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	client := c.NewClient("")
	ctx := context.Background()
	h, err := client.CreateBlob(ctx, cfg.BlockSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	id := h.ID()

	// Writers hammer the blob through the crashes. The write path is
	// core.Client's full stack: assign, store blocks, weave metadata,
	// commit. A generous retry schedule rides out each restart window.
	const writers = 4
	const cycles = 4 // ≥3 kill-restart cycles per the acceptance bar
	var (
		ackMu sync.Mutex
		acked []blob.Version
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	payload := make([]byte, cfg.BlockSize)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wh, err := client.OpenBlob(ctx, id)
			if err != nil {
				t.Errorf("writer %d: open: %v", w, err)
				return
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
				v, err := wh.Append(wctx, payload)
				cancel()
				if err != nil {
					// Failed writes are fine mid-crash — the janitor
					// aborts their versions. Only *acknowledged* writes
					// carry a durability promise.
					continue
				}
				ackMu.Lock()
				acked = append(acked, v)
				ackMu.Unlock()
			}
		}(w)
	}

	for i := 0; i < cycles; i++ {
		time.Sleep(150 * time.Millisecond)
		c.KillVManager()
		time.Sleep(100 * time.Millisecond)
		if err := c.RestartVManager(); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()

	ackMu.Lock()
	n := len(acked)
	var maxAcked blob.Version
	for _, v := range acked {
		if v > maxAcked {
			maxAcked = v
		}
	}
	ackMu.Unlock()
	if n == 0 {
		t.Fatal("no writes were acknowledged across the chaos run; the test exercised nothing")
	}
	t.Logf("%d acknowledged writes across %d kill-restart cycles, max version %d", n, cycles, maxAcked)

	// Wait out publication of everything acknowledged (in-flight
	// versions from failed writes may sit ahead of acked ones until
	// the janitor aborts them).
	vm := vmanager.NewClient(c.Pool, c.VMAddrs...)
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	head, err := vm.WaitPublished(wctx, id, 0, maxAcked, 25*time.Second, nil)
	if err != nil {
		t.Fatalf("acknowledged version %d never published after recovery: %v", maxAcked, err)
	}

	// Every acknowledged version must be present, non-aborted, and its
	// data readable end-to-end.
	rctx, rcancel := context.WithTimeout(ctx, 60*time.Second)
	defer rcancel()
	rh, err := client.OpenBlob(rctx, id)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := HistoryOf(rctx, vm, id)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, cfg.BlockSize)
	for _, v := range acked {
		d, ok := hist.Desc(v)
		if !ok {
			t.Fatalf("acknowledged version %d lost (history reaches %d)", v, hist.Latest())
		}
		if d.Aborted {
			t.Fatalf("acknowledged version %d was aborted by recovery", v)
		}
		snap, err := rh.Snapshot(rctx, v)
		if err != nil {
			t.Fatalf("snapshot %d: %v", v, err)
		}
		n, err := snap.ReadAtContext(rctx, buf, d.Off)
		if err != nil && err != io.EOF {
			t.Fatalf("read of acknowledged version %d at %d: %v", v, d.Off, err)
		}
		if int64(n) != d.Len {
			t.Fatalf("read of acknowledged version %d: %d bytes, want %d", v, n, d.Len)
		}
	}

	// Recovery is idempotent: one more kill-restart with no traffic
	// in between must reproduce the same publication point.
	c.KillVManager()
	if err := c.RestartVManager(); err != nil {
		t.Fatal(err)
	}
	h2, err := vm.Latest(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Published < head.Published {
		t.Fatalf("second recovery regressed publication: %d -> %d", head.Published, h2.Published)
	}
}

// TestChaosWaitPublishedRearms pins the satellite fix: a WaitPublished
// waiter armed before a vmanager crash must not hang for its full
// timeout — the retrying client re-issues the wait against the
// restarted manager and completes as soon as the version publishes.
func TestChaosWaitPublishedRearms(t *testing.T) {
	cfg := Config{
		DataProviders: 2,
		MetaProviders: 1,
		BlockSize:     64 * util.KB,
		DataDir:       t.TempDir(),
		CallTimeout:   time.Second,
	}
	c, err := StartBlobSeer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	ctx := context.Background()
	vm := vmanager.NewClient(c.Pool, c.VMAddrs...)
	// Wide schedule: the waiter must survive the restart window.
	vm.SetRetry(rpc.Backoff{Attempts: 20, Base: 20 * time.Millisecond, Max: 200 * time.Millisecond})
	m, err := vm.CreateBlob(ctx, cfg.BlockSize, 1)
	if err != nil {
		t.Fatal(err)
	}

	type waitResult struct {
		pub blob.Version
		err error
	}
	res := make(chan waitResult, 1)
	go func() {
		h, err := vm.WaitPublished(ctx, m.ID, 0, 1, 20*time.Second, nil)
		res <- waitResult{h.Published, err}
	}()
	time.Sleep(100 * time.Millisecond) // let the waiter arm server-side

	c.KillVManager()
	time.Sleep(50 * time.Millisecond)
	if err := c.RestartVManager(); err != nil {
		t.Fatal(err)
	}

	// Publish version 1 through the recovered manager.
	a, err := vm.AssignVersion(ctx, m.ID, blob.KindAppend, 0, cfg.BlockSize, 1, blob.NoVersion)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Commit(ctx, m.ID, a.Version); err != nil {
		t.Fatal(err)
	}

	select {
	case r := <-res:
		if r.err != nil {
			t.Fatalf("re-armed wait failed: %v", r.err)
		}
		if r.pub < 1 {
			t.Fatalf("re-armed wait returned pub=%d", r.pub)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("WaitPublished hung across the restart: waiter was lost, not re-armed")
	}
}

// TestChaosNamespaceKillRestart drives the namespace manager through a
// crash: files created (and acknowledged) before the kill must resolve
// to the same blobs afterwards, and the error paths must behave
// identically on the recovered tree.
func TestChaosNamespaceKillRestart(t *testing.T) {
	cfg := Config{
		DataProviders: 2,
		MetaProviders: 1,
		BlockSize:     64 * util.KB,
		DataDir:       t.TempDir(),
		CallTimeout:   time.Second,
	}
	c, err := StartBlobSeer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	ctx := context.Background()
	fs, err := c.NewBSFS("")
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]blob.ID{}
	for i := 0; i < 5; i++ {
		path := fmt.Sprintf("/dir/file-%d", i)
		f, err := fs.Create(ctx, path, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := fs.OpenBlob(ctx, path)
		if err != nil {
			t.Fatal(err)
		}
		ids[path] = b.ID()
	}

	c.KillNamespace()
	if err := c.RestartNamespace(); err != nil {
		t.Fatal(err)
	}

	for path, want := range ids {
		b, err := fs.OpenBlob(ctx, path)
		if err != nil {
			t.Fatalf("%s lost across namespace restart: %v", path, err)
		}
		if got := b.ID(); got != want {
			t.Errorf("%s remapped: blob %d -> %d", path, want, got)
		}
	}
	// Error paths on the recovered tree.
	if _, err := fs.Create(ctx, "/dir/file-0", false); err == nil {
		t.Error("duplicate create succeeded after recovery")
	}
	if _, err := fs.Open(ctx, "/never-existed"); err == nil {
		t.Error("open of a missing file succeeded after recovery")
	}
}

// TestChaosNoWALLosesState is the control arm: without a DataDir the
// restart comes back empty — the historical failure mode the WAL
// exists to fix.
func TestChaosNoWALLosesState(t *testing.T) {
	cfg := Config{
		DataProviders: 2,
		MetaProviders: 1,
		BlockSize:     64 * util.KB,
		CallTimeout:   time.Second,
	}
	c, err := StartBlobSeer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	ctx := context.Background()
	vm := vmanager.NewClient(c.Pool, c.VMAddrs...)
	m, err := vm.CreateBlob(ctx, cfg.BlockSize, 1)
	if err != nil {
		t.Fatal(err)
	}

	c.KillVManager()
	if err := c.RestartVManager(); err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Latest(ctx, m.ID); !errors.Is(err, vmanager.ErrUnknownBlob) {
		t.Fatalf("volatile restart kept blob %d (err=%v); expected it lost", m.ID, err)
	}
}
