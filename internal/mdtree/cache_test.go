package mdtree

import (
	"context"
	"slices"
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

	// The writer's cache holds what Build wrote that a reader names — the
	// 8 leaves, not the 7 inner nodes above them — so a read through the
	// block index touches the store not at all.
	if st := cache.Stats(); st.Size != 8 {
		t.Errorf("write-through cached %d nodes, want the 8 leaves", st.Size)
	}
	var o Owners
	o.Extend(B, h.Descs)
	ext, err := o.Resolve(ctx, cache, m, 1, 8*B, blob.Range{Off: 0, Len: 8 * B}, new(Scratch))
	if err != nil {
		t.Fatal(err)
	}
	if len(ext) != 8 {
		t.Fatalf("read resolved %d extents, want 8", len(ext))
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
	// Per-shard capacity is ceil(32/16) = 2, so at most 32 entries total.
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

// blockingStore delays GetBatch until released, counting inner fetches —
// proves singleflight dedup.
type blockingStore struct {
	*MemStore
	enter chan struct{} // one token per arrived GetBatch
	gate  chan struct{} // closed to release all GetBatches
	calls atomic.Int64
}

func (b *blockingStore) GetBatch(ctx context.Context, ids []NodeID) (map[NodeID]Node, error) {
	b.calls.Add(1)
	b.enter <- struct{}{}
	<-b.gate
	return b.MemStore.GetBatch(ctx, ids)
}

func TestCacheSingleflightDedupsConcurrentMisses(t *testing.T) {
	ctx := context.Background()
	mem := NewMemStore()
	id := NodeID{Blob: 1, Version: 1, Off: 0, Span: B}
	if err := mem.Put(ctx, Node{ID: id, Leaf: true}); err != nil {
		t.Fatal(err)
	}
	bs := &blockingStore{MemStore: mem, enter: make(chan struct{}, 64), gate: make(chan struct{})}
	cache := NewNodeCache(bs, 0)

	const readers = 32
	var wg sync.WaitGroup
	errs := make([]error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = cache.Get(ctx, id)
		}(i)
	}
	<-bs.enter // exactly one fetch reached the store
	close(bs.gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
	}
	if got := bs.calls.Load(); got != 1 {
		t.Errorf("%d inner fetches for %d concurrent misses, want 1", got, readers)
	}
}

// cancelOwnerStore fails the first GetBatch with its caller's context
// error (once that context is canceled) and serves normally afterwards.
type cancelOwnerStore struct {
	*MemStore
	calls   atomic.Int64
	started chan struct{}
}

func (s *cancelOwnerStore) GetBatch(ctx context.Context, ids []NodeID) (map[NodeID]Node, error) {
	if s.calls.Add(1) == 1 {
		close(s.started)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return s.MemStore.GetBatch(ctx, ids)
}

func TestCacheJoinerSurvivesOwnerCancellation(t *testing.T) {
	// A canceled flight owner must not fail joiners whose own contexts
	// are live: they retry the fetch themselves.
	mem := NewMemStore()
	id := NodeID{Blob: 1, Version: 1, Off: 0, Span: B}
	if err := mem.Put(context.Background(), Node{ID: id, Leaf: true}); err != nil {
		t.Fatal(err)
	}
	st := &cancelOwnerStore{MemStore: mem, started: make(chan struct{})}
	cache := NewNodeCache(st, 0)

	ownerCtx, cancel := context.WithCancel(context.Background())
	ownerErr := make(chan error, 1)
	go func() {
		_, err := cache.Get(ownerCtx, id)
		ownerErr <- err
	}()
	<-st.started // the owner's fetch is in flight; its flight is registered

	joinerErr := make(chan error, 1)
	go func() {
		_, err := cache.Get(context.Background(), id)
		joinerErr <- err
	}()
	cancel()
	if err := <-ownerErr; err == nil {
		t.Error("canceled owner succeeded")
	}
	if err := <-joinerErr; err != nil {
		t.Errorf("joiner inherited the owner's cancellation: %v", err)
	}
}

func TestCacheMissError(t *testing.T) {
	ctx := context.Background()
	cache := NewNodeCache(NewMemStore(), 0)
	if _, err := cache.Get(ctx, NodeID{Blob: 1, Version: 9, Off: 0, Span: B}); err == nil {
		t.Error("absent node returned without error")
	}
	// Errors must not be cached: store the node, the next Get succeeds.
	id := NodeID{Blob: 1, Version: 9, Off: 0, Span: B}
	if err := cache.Inner().Put(ctx, Node{ID: id, Leaf: true}); err != nil {
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

func TestCacheShardSpread(t *testing.T) {
	// Sequential tree NodeIDs must not all land in one shard.
	c := NewNodeCache(NewMemStore(), 0)
	counts := make(map[*cacheShard]int)
	for i := 0; i < 1024; i++ {
		counts[c.shard(NodeID{Blob: 1, Version: 3, Off: int64(i) * B, Span: B})]++
	}
	if len(counts) < cacheShardCount/2 {
		t.Errorf("1024 sequential ids hit only %d/%d shards", len(counts), cacheShardCount)
	}
	for s, n := range counts {
		if n > 1024/2 {
			t.Errorf("shard %p owns %d/1024 ids", s, n)
		}
	}
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

func TestCacheGetBatchSingleflightAcrossCallers(t *testing.T) {
	// Two concurrent GetBatch calls over the same cold ids must not both
	// hit the store for every id.
	ctx := context.Background()
	mem := NewMemStore()
	ids := make([]NodeID, 16)
	for i := range ids {
		ids[i] = NodeID{Blob: 1, Version: 1, Off: int64(i) * B, Span: B}
		if err := mem.Put(ctx, Node{ID: ids[i], Leaf: true}); err != nil {
			t.Fatal(err)
		}
	}
	cache := NewNodeCache(mem, 0)
	const callers = 8
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := cache.GetBatch(ctx, ids)
			if err != nil {
				t.Error(err)
				return
			}
			if len(got) != len(ids) {
				t.Errorf("resolved %d/%d", len(got), len(ids))
			}
		}()
	}
	wg.Wait()
	_, gets := mem.Ops()
	if gets > int64(len(ids)*callers/2) {
		t.Errorf("%d inner gets for %d ids x %d callers (dedup ineffective)", gets, len(ids), callers)
	}
}

// TestCacheEvictsColdestFirst pins the LRU order inside one shard: a
// hit or a rewrite makes an entry the most recent, the entry touched
// longest ago goes first, and what a full shard allocates per insert is
// nothing (the evicted entry is reused).
func TestCacheEvictsColdestFirst(t *testing.T) {
	cache := NewNodeCache(NewMemStore(), 4*cacheShardCount) // 4 entries per shard
	ctx := context.Background()
	var ids []NodeID // nodes of one shard
	for v := blob.Version(1); len(ids) < 7; v++ {
		id := NodeID{Blob: 1, Version: v, Span: B}
		if cache.shard(id) == &cache.shards[0] {
			ids = append(ids, id)
		}
	}
	put := func(i int) {
		t.Helper()
		if err := cache.Put(ctx, Node{ID: ids[i], Leaf: true}); err != nil {
			t.Fatal(err)
		}
	}
	cached := func(i int) bool {
		s := cache.shard(ids[i])
		s.mu.Lock()
		defer s.mu.Unlock()
		_, ok := s.entries[ids[i]]
		return ok
	}
	for i := 0; i < 4; i++ {
		put(i)
	}
	if _, err := cache.Get(ctx, ids[0]); err != nil { // 0 is recent again
		t.Fatal(err)
	}
	put(1) // and so is 1: coldest first is now 2, 3, 0, 1
	for next, evicted := range []int{2, 3, 0} {
		put(4 + next)
		if cached(evicted) {
			t.Fatalf("inserting node %d into a full shard kept node %d", 4+next, evicted)
		}
	}
	for _, i := range []int{1, 4, 5, 6} {
		if !cached(i) {
			t.Errorf("node %d was evicted out of turn", i)
		}
	}
	if st := cache.Stats(); st.Evictions != 3 || st.Size != 4 {
		t.Errorf("stats = %+v, want 3 evictions and 4 entries", st)
	}
	s := &cache.shards[0]
	allocs := testing.AllocsPerRun(100, func() {
		s.mu.Lock()
		cache.insertLocked(s, ids[0], Node{ID: ids[0]})
		cache.insertLocked(s, ids[2], Node{ID: ids[2]})
		s.mu.Unlock()
	})
	if allocs != 0 {
		t.Errorf("inserting into a full shard allocates %.1f times", allocs)
	}
}

// TestGetBatchAllHitsAllocateOnlyTheResult: a batch the cache serves
// whole makes its result map and nothing else — no flight bookkeeping.
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

// leafFiller fills every id with a leaf naming one provider, through the
// fill path and without allocating: a store whose cost is not measured.
type leafFiller struct{ Store }

var leafProviders = []string{"p0"}

func (leafFiller) fill(_ context.Context, ids []NodeID, out []Node) error {
	for i, id := range ids {
		out[i] = Node{ID: id, Leaf: true, Block: BlockRef{Providers: leafProviders, Len: id.Span}}
	}
	return nil
}

// TestColdResolveAllocatesNothing: a resolve into a kept Scratch,
// through a full node cache that misses on every call, allocates
// nothing of its own — no extents, IDs, nodes or flight — once the
// cache's entries and its recycled flight exist.
func TestColdResolveAllocatesNothing(t *testing.T) {
	ctx, m := context.Background(), blob.Meta{ID: 1, BlockSize: eqBS, Replication: 1}
	var o Owners
	o.Extend(eqBS, []blob.WriteDesc{{Version: 1, Len: 64 * eqBS, SizeAfter: 64 * eqBS}})
	cache := NewNodeCache(leafFiller{}, cacheShardCount) // one entry per shard
	var sc Scratch
	i := 0
	resolve := func() {
		i = (i + 7) % 61
		r := blob.Range{Off: int64(i)*eqBS + eqBS/2, Len: 2 * eqBS}
		ext, err := o.Resolve(ctx, cache, m, 1, 64*eqBS, r, &sc)
		if err != nil || len(ext) != 3 || ext[1].Block.Len != eqBS {
			t.Fatalf("Resolve(%v) = %v, %v; want 3 data extents", r, ext, err)
		}
	}
	for range 64 {
		resolve() // every shard full, the scratch grown
	}
	misses := cache.Stats().Misses
	if n := testing.AllocsPerRun(100, resolve); n != 0 {
		t.Errorf("a cold 3-leaf resolve allocates %v times", n)
	}
	if cache.Stats().Misses == misses {
		t.Error("the resolves hit the cache: nothing cold was measured")
	}
}

// holdingStore holds a batch that asks for node hold until release is
// closed; other batches go straight through.
type holdingStore struct {
	*MemStore
	hold    NodeID
	entered chan struct{}
	release chan struct{}
}

func (h *holdingStore) GetBatch(ctx context.Context, ids []NodeID) (map[NodeID]Node, error) {
	if slices.Contains(ids, h.hold) {
		h.entered <- struct{}{}
		<-h.release
	}
	return h.MemStore.GetBatch(ctx, ids)
}

// TestPrefetchCountsAMissPerNodeItFetches pins the counters a prefetch
// moves: a miss for each node it sends for and one batch for all of
// them, nothing for a node already cached or in another call's flight,
// which it does not wait for. The reads it served then count a hit
// each, and a prefetch of cached nodes allocates nothing.
func TestPrefetchCountsAMissPerNodeItFetches(t *testing.T) {
	ctx := context.Background()
	mem := NewMemStore()
	ids := make([]NodeID, 8)
	for i := range ids {
		ids[i] = NodeID{Blob: 1, Version: 1, Off: int64(i) * B, Span: B}
		if err := mem.Put(ctx, Node{ID: ids[i], Leaf: true}); err != nil {
			t.Fatal(err)
		}
	}
	held := &holdingStore{MemStore: mem, hold: ids[0], entered: make(chan struct{}), release: make(chan struct{})}
	c := NewNodeCache(held, 0)
	if _, err := c.Get(ctx, ids[1]); err != nil { // cached
		t.Fatal(err)
	}
	joined := make(chan error)
	go func() { // in flight, held
		_, err := c.Get(ctx, ids[0])
		joined <- err
	}()
	<-held.entered
	if err := c.Prefetch(ctx, ids); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 8 || st.Hits != 0 || st.BatchGets != 3 || st.Size != 7 {
		t.Errorf("after a prefetch beside a cached node and a held flight: %+v; want 8 misses, 3 batches, 7 nodes", st)
	}
	close(held.release)
	if err := <-joined; err != nil {
		t.Fatal(err)
	}
	if got, err := c.GetBatch(ctx, ids); err != nil || len(got) != len(ids) {
		t.Fatalf("reading the prefetched nodes: %d of %d, %v", len(got), len(ids), err)
	}
	if st := c.Stats(); st.Misses != 8 || st.Hits != 8 || st.BatchGets != 3 {
		t.Errorf("the reads a prefetch served: %+v; want 8 hits and no batch", st)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := c.Prefetch(ctx, ids); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a prefetch of cached nodes allocates %v times", n)
	}
	if st := c.Stats(); st.Misses != 8 || st.Hits != 8 || st.BatchGets != 3 {
		t.Errorf("a prefetch of cached nodes moved the counters: %+v", st)
	}
}
