package mdtree

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"blobseer/internal/blob"
)

func buildBlocks(t testing.TB, st Store, nBlocks int) (*blob.History, blob.Meta) {
	t.Helper()
	h := &blob.History{}
	m := meta()
	mustAppend(t, h, blob.WriteDesc{Version: 1, Off: 0, Len: int64(nBlocks) * B, SizeAfter: int64(nBlocks) * B, Kind: blob.KindAppend})
	if _, err := Build(context.Background(), st, m, h, 1, refs(1, nBlocks, 0)); err != nil {
		t.Fatal(err)
	}
	return h, m
}

func TestCacheWarmReadZeroStoreGets(t *testing.T) {
	ctx := context.Background()
	inner := NewMemStore()
	cache := NewNodeCache(inner, 0)
	_, m := buildBlocks(t, cache, 16)

	// Build went write-through, so even the cold read is free — wipe the
	// cache to force a real cold pass first.
	cold := NewNodeCache(inner, 0)
	if _, err := Resolve(ctx, cold, m, 1, 16*B, blob.Range{Off: 0, Len: 16 * B}); err != nil {
		t.Fatal(err)
	}
	_, getsAfterCold := inner.Ops()
	if getsAfterCold == 0 {
		t.Fatal("cold resolve touched no store nodes")
	}

	// Warm re-read: every node now cached; zero inner gets.
	ext, err := Resolve(ctx, cold, m, 1, 16*B, blob.Range{Off: 0, Len: 16 * B})
	if err != nil {
		t.Fatal(err)
	}
	if len(ext) != 16 {
		t.Fatalf("warm resolve returned %d extents, want 16", len(ext))
	}
	_, getsAfterWarm := inner.Ops()
	if getsAfterWarm != getsAfterCold {
		t.Errorf("warm resolve issued %d store gets, want 0", getsAfterWarm-getsAfterCold)
	}
	st := cold.Stats()
	if st.Hits == 0 || st.Size == 0 {
		t.Errorf("stats after warm read = %+v", st)
	}
}

func TestCacheWriteThroughMakesReadFree(t *testing.T) {
	ctx := context.Background()
	inner := NewMemStore()
	cache := NewNodeCache(inner, 0)
	h, m := buildBlocks(t, cache, 8)

	// The writer's cache holds the leaves Build wrote, not the 7 inner
	// nodes above them, so reading the leaves touches the store not at
	// all.
	if st := cache.Stats(); st.Size != 8 {
		t.Errorf("write-through cached %d nodes, want the 8 leaves", st.Size)
	}
	ids := make([]NodeID, 8)
	for i := range ids {
		ids[i] = NodeID{Blob: m.ID, Version: h.Latest(), Off: int64(i) * B, Span: B}
	}
	got, err := cache.GetBatch(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("read %d leaves, want 8", len(got))
	}
	if _, gets := inner.Ops(); gets != 0 {
		t.Errorf("read after write-through issued %d store gets, want 0", gets)
	}
}

func TestCacheBoundedEviction(t *testing.T) {
	inner := NewMemStore()
	cache := NewNodeCache(inner, 32)
	ctx := context.Background()
	for i := 0; i < 500; i++ {
		n := Node{ID: NodeID{Blob: 1, Version: blob.Version(i + 1), Off: 0, Span: B}, Leaf: true}
		if err := cache.Put(ctx, n); err != nil {
			t.Fatal(err)
		}
	}
	st := cache.Stats()
	if st.Size > 32 {
		t.Errorf("cache holds %d entries, bound is 32", st.Size)
	}
	if st.Evictions == 0 {
		t.Error("no evictions recorded after overflow")
	}
	if inner.Len() != 500 {
		t.Errorf("inner store has %d nodes, want 500 (eviction must not delete)", inner.Len())
	}
}

func TestCacheMissError(t *testing.T) {
	ctx := context.Background()
	inner := NewMemStore()
	cache := NewNodeCache(inner, 0)
	if _, err := cache.Get(ctx, NodeID{Blob: 1, Version: 9, Off: 0, Span: B}); err == nil {
		t.Error("absent node returned without error")
	}
	// Errors must not be cached: store the node, the next Get succeeds.
	id := NodeID{Blob: 1, Version: 9, Off: 0, Span: B}
	if err := inner.Put(ctx, Node{ID: id, Leaf: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Get(ctx, id); err != nil {
		t.Errorf("node stored after miss still unreadable: %v", err)
	}
}

func TestCacheDeleteInvalidates(t *testing.T) {
	ctx := context.Background()
	inner := NewMemStore()
	cache := NewNodeCache(inner, 0)
	id := NodeID{Blob: 1, Version: 1, Off: 0, Span: B}
	if err := cache.Put(ctx, Node{ID: id, Leaf: true}); err != nil {
		t.Fatal(err)
	}
	if err := cache.Delete(ctx, id); err != nil {
		t.Fatal(err)
	}
	if inner.Has(id) {
		t.Error("delete did not reach the inner store")
	}
	if _, err := cache.Get(ctx, id); err == nil {
		t.Error("deleted node still served from cache")
	}
}

func TestCacheGetBatchMixesHitsAndMisses(t *testing.T) {
	ctx := context.Background()
	inner := NewMemStore()
	cache := NewNodeCache(inner, 0)
	ids := make([]NodeID, 10)
	for i := range ids {
		ids[i] = NodeID{Blob: 1, Version: 1, Off: int64(i) * B, Span: B}
		if err := inner.Put(ctx, Node{ID: ids[i], Leaf: true}); err != nil {
			t.Fatal(err)
		}
	}
	// Prime half through the cache.
	for _, id := range ids[:5] {
		if _, err := cache.Get(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	_, getsBefore := inner.Ops()
	absent := NodeID{Blob: 1, Version: 7, Off: 0, Span: B}
	got, err := cache.GetBatch(ctx, append(append([]NodeID{}, ids...), absent))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("batch resolved %d nodes, want 10", len(got))
	}
	if _, ok := got[absent]; ok {
		t.Error("absent node resolved")
	}
	_, getsAfter := inner.Ops()
	// Only the 5 unprimed ids + the absent one may touch the store.
	if getsAfter-getsBefore > 6 {
		t.Errorf("batch issued %d inner gets, want <= 6", getsAfter-getsBefore)
	}
}

func TestCacheConcurrentResolveBuildRace(t *testing.T) {
	// Writers keep appending versions while readers resolve whatever is
	// already published; run with -race. Mirrors concurrent mappers over
	// a growing blob.
	ctx := context.Background()
	inner := NewMemStore()
	cache := NewNodeCache(inner, 128)
	m := meta()
	h := &blob.History{}
	var mu sync.Mutex // guards h
	const versions = 24

	mustAppend(t, h, blob.WriteDesc{Version: 1, Off: 0, Len: 4 * B, SizeAfter: 4 * B, Kind: blob.KindAppend})
	if _, err := Build(ctx, cache, m, h, 1, refs(1, 4, 0)); err != nil {
		t.Fatal(err)
	}

	var published atomic.Int64
	published.Store(1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		for v := blob.Version(2); v <= versions; v++ {
			mu.Lock()
			mustAppendDesc := blob.WriteDesc{Version: v, Off: 0, Len: 2 * B, SizeAfter: 4 * B}
			if err := h.Append(mustAppendDesc); err != nil {
				mu.Unlock()
				t.Error(err)
				return
			}
			snap := h.View()
			mu.Unlock()
			if _, err := Build(ctx, cache, m, &snap, v, refs(uint64(v), 2, 0)); err != nil {
				t.Error(err)
				return
			}
			published.Store(int64(v))
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v := blob.Version(published.Load())
				ext, err := Resolve(ctx, cache, m, v, 4*B, blob.Range{Off: 0, Len: 4 * B})
				if err != nil {
					t.Errorf("resolve v%d: %v", v, err)
					return
				}
				var total int64
				for _, e := range ext {
					total += e.Len
				}
				if total != 4*B {
					t.Errorf("resolve v%d covered %d bytes", v, total)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestCacheThroughDHTStoreKeysDiffer(t *testing.T) {
	// Guard against NodeID map-key collisions: distinct ids must stay
	// distinct entries.
	ctx := context.Background()
	cache := NewNodeCache(NewMemStore(), 0)
	a := NodeID{Blob: 1, Version: 1, Off: 0, Span: 2 * B}
	b := NodeID{Blob: 1, Version: 1, Off: 0, Span: B}
	if err := cache.Put(ctx, Node{ID: a}); err != nil {
		t.Fatal(err)
	}
	if err := cache.Put(ctx, Node{ID: b, Leaf: true}); err != nil {
		t.Fatal(err)
	}
	na, err := cache.Get(ctx, a)
	if err != nil || na.Leaf {
		t.Errorf("inner node corrupted: %+v, %v", na, err)
	}
	nb, err := cache.Get(ctx, b)
	if err != nil || !nb.Leaf {
		t.Errorf("leaf corrupted: %+v, %v", nb, err)
	}
}

func TestCacheRefreshesRepairedNode(t *testing.T) {
	// A write-through of a node already cached must replace the cached
	// copy, not be ignored — a leaf, and an inner node a tree walk
	// brought into the cache.
	ctx := context.Background()
	inner := NewMemStore()
	cache := NewNodeCache(inner, 0)
	id := NodeID{Blob: 1, Version: 1, Off: 0, Span: B}
	orig := Node{ID: id, Leaf: true, Block: BlockRef{Key: blob.BlockKey{Blob: 1, Nonce: 7}, Providers: []string{"p1"}, Len: B}}
	if err := cache.Put(ctx, orig); err != nil {
		t.Fatal(err)
	}
	repaired := Node{ID: id, Leaf: true} // no providers: reads as zeros
	if err := cache.Put(ctx, repaired); err != nil {
		t.Fatal(err)
	}
	got, err := cache.Get(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Block.Providers) != 0 {
		t.Errorf("cache still serves the pre-repair node: %+v", got)
	}

	spine := NodeID{Blob: 1, Version: 2, Off: 0, Span: 4 * B}
	if err := cache.Put(ctx, Node{ID: spine, Left: ChildRef{Version: 2}, Right: ChildRef{Version: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Get(ctx, spine); err != nil { // a walk fetches it
		t.Fatal(err)
	}
	if err := cache.Put(ctx, Node{ID: spine, Left: ChildRef{Version: 2}}); err != nil {
		t.Fatal(err)
	}
	_, gets := inner.Ops()
	if got, err := cache.Get(ctx, spine); err != nil || got.Right.Present() {
		t.Errorf("cache still serves the pre-repair inner node: %+v, %v", got, err)
	}
	if _, after := inner.Ops(); after != gets {
		t.Error("the repaired inner node was dropped from the cache, not replaced")
	}
}

func TestCacheStatsCounters(t *testing.T) {
	ctx := context.Background()
	inner := NewMemStore()
	cache := NewNodeCache(inner, 0)
	id := NodeID{Blob: 2, Version: 1, Off: 0, Span: B}
	if err := inner.Put(ctx, Node{ID: id, Leaf: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Get(ctx, id); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Get(ctx, id); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

// TestGetBatchAllHitsAllocateOnlyTheResult: a batch the cache serves
// whole makes its result map and nothing else.
func TestGetBatchAllHitsAllocateOnlyTheResult(t *testing.T) {
	mem := NewMemStore()
	_, m := buildBlocks(t, mem, 16)
	c := NewNodeCache(mem, 0)
	ctx := context.Background()
	ids := make([]NodeID, 16)
	for i := range ids {
		ids[i] = NodeID{Blob: m.ID, Version: 1, Off: int64(i) * B, Span: B}
	}
	if got, err := c.GetBatch(ctx, ids); err != nil || len(got) != len(ids) {
		t.Fatalf("warming GetBatch = %d nodes, %v", len(got), err)
	}
	var result map[NodeID]Node // escapes, as a returned map does
	resultOnly := testing.AllocsPerRun(100, func() {
		result = make(map[NodeID]Node, len(ids))
		for _, id := range ids {
			result[id] = Node{}
		}
	})
	allHit := testing.AllocsPerRun(100, func() {
		if got, err := c.GetBatch(ctx, ids); err != nil || len(got) != len(ids) {
			t.Fatalf("warm GetBatch = %d nodes, %v", len(got), err)
		}
	})
	if allHit > resultOnly {
		t.Errorf("an all-hit GetBatch of %d ids allocates %.0f times, its result map alone %.0f", len(ids), allHit, resultOnly)
	}
}
