package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/core"
	"blobseer/internal/rpc"
	"blobseer/internal/util"
	"blobseer/internal/vmanager"
)

// TestShardLocalRouting is the op-count proof of shard-local routing: a
// full write to blob X (assign, commit and the surrounding metadata
// calls) must touch exactly the shard that owns X — every sibling
// shard's per-op counters stay frozen.
func TestShardLocalRouting(t *testing.T) {
	cfg := Config{
		DataProviders: 2,
		MetaProviders: 1,
		VMShards:      4,
		BlockSize:     64 * util.KB,
		CallTimeout:   2 * time.Second,
	}
	c, err := StartBlobSeer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	ctx := context.Background()
	client := c.NewClient("")
	h, err := client.CreateBlob(ctx, cfg.BlockSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	owner := vmanager.ShardOf(h.ID(), cfg.VMShards)

	before := make([]vmanager.OpCounts, cfg.VMShards)
	for k := range before {
		before[k] = c.VMServiceShard(k).Ops()
	}

	payload := make([]byte, cfg.BlockSize)
	if _, err := h.Append(ctx, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Append(ctx, payload); err != nil {
		t.Fatal(err)
	}

	for k := 0; k < cfg.VMShards; k++ {
		delta := c.VMServiceShard(k).Ops().Total() - before[k].Total()
		if k == owner {
			ops := c.VMServiceShard(k).Ops()
			if delta == 0 {
				t.Errorf("owning shard %d saw no traffic for blob %d", k, h.ID())
			}
			if ops.Assign-before[k].Assign != 2 || ops.Commit-before[k].Commit != 2 {
				t.Errorf("owning shard %d: assign +%d commit +%d, want +2/+2",
					k, ops.Assign-before[k].Assign, ops.Commit-before[k].Commit)
			}
			continue
		}
		if delta != 0 {
			t.Errorf("sibling shard %d saw %d ops for a blob it does not own (owner %d)", k, delta, owner)
		}
	}
}

// TestShardedClusterEndToEnd runs the full client stack against a
// sharded control plane: files created through the namespace spread
// over shards, and reads come back intact.
func TestShardedClusterEndToEnd(t *testing.T) {
	cfg := Config{
		DataProviders: 3,
		MetaProviders: 2,
		VMShards:      3,
		BlockSize:     64 * util.KB,
		CallTimeout:   2 * time.Second,
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
	payload := make([]byte, cfg.BlockSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	paths := []string{"/a", "/b", "/c", "/d", "/e"}
	shardsHit := map[int]bool{}
	for _, p := range paths {
		f, err := fs.Create(ctx, p, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := fs.OpenBlob(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		shardsHit[vmanager.ShardOf(b.ID(), cfg.VMShards)] = true
	}
	if len(shardsHit) < 2 {
		t.Errorf("5 files landed on %d shard(s); round-robin minting should spread them", len(shardsHit))
	}
	for _, p := range paths {
		r, err := fs.Open(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, len(payload))
		if _, err := r.Read(buf); err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		r.Close()
		for i := range buf {
			if buf[i] != payload[i] {
				t.Fatalf("%s corrupt at %d", p, i)
			}
		}
	}
}

// TestChaosVMShardKillRestart is the sharded acceptance test: with K=2
// shards, killing the shard that owns blob A mid-write must (a) lose
// zero acknowledged publishes on A once the shard recovers, and (b)
// leave the sibling shard publishing blob B throughout the outage.
func TestChaosVMShardKillRestart(t *testing.T) {
	cfg := Config{
		DataProviders: 3,
		MetaProviders: 1,
		VMShards:      2,
		BlockSize:     64 * util.KB,
		DataDir:       t.TempDir(),
		CallTimeout:   time.Second,
		// The kill can orphan an assigned-but-uncommitted version; the
		// janitor must abort it or the publication line stalls forever.
		WriteTimeout: 2 * time.Second,
	}
	c, err := StartBlobSeer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	ctx := context.Background()
	client := c.NewClient("")
	// Mint until we hold one blob per shard.
	byShard := map[int]*core.Blob{}
	for len(byShard) < 2 {
		h, err := client.CreateBlob(ctx, cfg.BlockSize, 1)
		if err != nil {
			t.Fatal(err)
		}
		byShard[vmanager.ShardOf(h.ID(), cfg.VMShards)] = h
	}
	const victim = 0
	vic, sib := byShard[victim], byShard[1]

	payload := make([]byte, cfg.BlockSize)
	type tally struct {
		mu    sync.Mutex
		acked []blob.Version
	}
	var vt, st tally
	stop := make(chan struct{})
	var wg sync.WaitGroup
	writer := func(h *core.Blob, ta *tally) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			v, err := h.Append(wctx, payload)
			cancel()
			if err != nil {
				continue // only acknowledged writes carry the promise
			}
			ta.mu.Lock()
			ta.acked = append(ta.acked, v)
			ta.mu.Unlock()
		}
	}
	wg.Add(2)
	go writer(vic, &vt)
	go writer(sib, &st)

	time.Sleep(200 * time.Millisecond)
	c.KillVMShard(victim)

	// The outage window: the sibling shard must keep publishing.
	st.mu.Lock()
	sibBefore := len(st.acked)
	st.mu.Unlock()
	time.Sleep(300 * time.Millisecond)
	st.mu.Lock()
	sibDuring := len(st.acked)
	st.mu.Unlock()
	if sibDuring <= sibBefore {
		t.Errorf("sibling shard stalled during the outage: %d -> %d acks", sibBefore, sibDuring)
	}

	if err := c.RestartVMShard(victim); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	vt.mu.Lock()
	vicAcked := append([]blob.Version(nil), vt.acked...)
	vt.mu.Unlock()
	if len(vicAcked) == 0 {
		t.Fatal("no writes acknowledged on the victim shard; the test exercised nothing")
	}
	var maxAcked blob.Version
	for _, v := range vicAcked {
		if v > maxAcked {
			maxAcked = v
		}
	}
	t.Logf("victim shard: %d acked (max v%d); sibling: %d acked (%d during outage)",
		len(vicAcked), maxAcked, len(st.acked), sibDuring-sibBefore)

	// Zero acked publishes lost on the recovered shard.
	vm := vmanager.NewClient(c.Pool, c.VMAddrs...)
	vm.SetRetry(rpc.Backoff{Attempts: 10, Base: 20 * time.Millisecond, Max: 200 * time.Millisecond})
	wctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	if _, err := vm.WaitPublished(wctx, vic.ID(), 0, maxAcked, 15*time.Second, nil); err != nil {
		t.Fatalf("acked version %d never published after shard recovery: %v", maxAcked, err)
	}
	hist, err := HistoryOf(ctx, vm, vic.ID())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vicAcked {
		d, ok := hist.Desc(v)
		if !ok {
			t.Fatalf("acked version %d lost across shard crash (history reaches %d)", v, hist.Latest())
		}
		if d.Aborted {
			t.Fatalf("acked version %d aborted by recovery", v)
		}
	}
}
