package mdtree

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"blobseer/internal/blob"
)

// NodeCache is a bounded, sharded LRU cache wrapped around any Store.
// It is trivially coherent: tree nodes are immutable once written ("no
// existing metadata is ever modified", Section III-A3), so a cached
// node can never go stale — the only invalidation is GC deleting a
// pruned version's nodes, which Delete handles. Warm re-reads of the
// same range (the MapReduce pattern: one input scanned by many mappers)
// resolve entirely from memory with zero DHT traffic.
//
// Writes go through to the store and leave their leaves cached, and
// only those: a reader names leaves from its block index, so the leaves
// a client wrote read back at no metadata cost, while the O(log n) inner
// nodes of each write are fetched only by a tree walk that needs them.
//
// Concurrent misses for the same node are deduplicated singleflight-
// style: one fetch travels to the store, every other caller waits for
// its result. Under the paper's heavy-concurrency read workloads this
// collapses N simultaneous fetches of the shared tree spine into one.
type NodeCache struct {
	inner  Store
	batch  BatchStore // non-nil when inner supports multi-ops
	shards []cacheShard
	perCap int // max entries per shard

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	batchGets atomic.Int64 // batched round-trips issued to the inner store
}

// DefaultCacheSize bounds a NodeCache when the caller passes no
// capacity: enough for the full tree of a 64 GB blob at 64 MB blocks.
const DefaultCacheSize = 1 << 16

// cacheShardCount trades lock contention against per-shard LRU quality.
const cacheShardCount = 16

type cacheShard struct {
	mu      sync.Mutex
	entries map[NodeID]*cacheEntry
	lru     cacheEntry // list head: lru.next is the most recent entry, lru.prev the coldest
	flights map[NodeID]*flight
}

// cacheEntry is a cached node and its place in its shard's LRU ring.
type cacheEntry struct {
	id         NodeID
	n          Node
	prev, next *cacheEntry
}

func (e *cacheEntry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
}

// touch makes e (new, or unlinked) the shard's most recent entry.
func (s *cacheShard) touch(e *cacheEntry) {
	e.prev, e.next = &s.lru, s.lru.next
	e.prev.next, e.next.prev = e, e
}

// drop removes e from the shard.
func (s *cacheShard) drop(e *cacheEntry) {
	e.unlink()
	delete(s.entries, e.id)
}

// flight is one in-progress fetch that concurrent callers wait on.
type flight struct {
	done chan struct{}
	n    Node
	ok   bool  // node exists
	err  error // fetch failed; existence undecided
}

// NewNodeCache wraps inner with a cache holding at most capacity nodes
// (DefaultCacheSize if capacity <= 0).
func NewNodeCache(inner Store, capacity int) *NodeCache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	perCap := (capacity + cacheShardCount - 1) / cacheShardCount
	c := &NodeCache{inner: inner, perCap: perCap, shards: make([]cacheShard, cacheShardCount)}
	c.batch, _ = inner.(BatchStore)
	for i := range c.shards {
		c.shards[i].entries = make(map[NodeID]*cacheEntry)
		c.shards[i].lru.prev, c.shards[i].lru.next = &c.shards[i].lru, &c.shards[i].lru
		c.shards[i].flights = make(map[NodeID]*flight)
	}
	return c
}

// Inner exposes the wrapped store (tests, stats).
func (c *NodeCache) Inner() Store { return c.inner }

// MaybeCache applies the configuration convention shared by daemon
// flags and client configs: size 0 leaves st uncached, size < 0 wraps
// it with DefaultCacheSize, size > 0 wraps it with that capacity.
func MaybeCache(st Store, size int) Store {
	if size == 0 {
		return st
	}
	if size < 0 {
		size = 0 // NewNodeCache's "use the default" convention
	}
	return NewNodeCache(st, size)
}

// CacheStats is a snapshot of the cache's counters.
type CacheStats struct {
	Hits      int64 // lookups served from memory
	Misses    int64 // lookups that had to touch the store (or join a flight)
	Evictions int64 // entries dropped by the LRU bound
	BatchGets int64 // batched multi-get round-trips to the inner store
	Size      int64 // entries currently cached
}

// Stats returns the cache counters.
func (c *NodeCache) Stats() CacheStats {
	st := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		BatchGets: c.batchGets.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Size += int64(len(s.entries))
		s.mu.Unlock()
	}
	return st
}

func (c *NodeCache) shard(id NodeID) *cacheShard {
	// NodeIDs of one tree differ mostly in Off/Span; a splitmix-style
	// finalizer spreads them across shards.
	h := uint64(id.Blob)<<32 ^ uint64(id.Version)<<16 ^ uint64(id.Off)<<1 ^ uint64(id.Span)
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return &c.shards[(h^(h>>31))%cacheShardCount]
}

// insertLocked adds or refreshes id under the shard lock, evicting the
// coldest entry when over capacity. The value is overwritten even on a
// hit: nodes are immutable for readers, but abort repair re-Builds an
// aborted version's nodes under the same IDs with empty block refs.
func (c *NodeCache) insertLocked(s *cacheShard, id NodeID, n Node) {
	e, ok := s.entries[id]
	switch {
	case ok:
		e.unlink()
	case len(s.entries) >= c.perCap: // full: the coldest entry becomes this one
		e = s.lru.prev
		s.drop(e)
		c.evictions.Add(1)
	default:
		e = &cacheEntry{}
	}
	e.id, e.n = id, n
	s.entries[id] = e
	s.touch(e)
}

// hitLocked returns the cached node for id, refreshing its LRU place.
func (s *cacheShard) hitLocked(id NodeID) (Node, bool) {
	e, ok := s.entries[id]
	if !ok {
		return Node{}, false
	}
	e.unlink()
	s.touch(e)
	return e.n, true
}

// Put implements Store: write-through, then cache (see wrote).
func (c *NodeCache) Put(ctx context.Context, n Node) error {
	if err := c.inner.Put(ctx, n); err != nil {
		return err
	}
	c.wrote(n)
	return nil
}

// PutBatch implements BatchStore (write-through, see wrote).
func (c *NodeCache) PutBatch(ctx context.Context, nodes []Node) error {
	if c.batch != nil {
		if err := c.batch.PutBatch(ctx, nodes); err != nil {
			return err
		}
	} else {
		if err := putAllSingles(ctx, c.inner, nodes); err != nil {
			return err
		}
	}
	for _, n := range nodes {
		c.wrote(n)
	}
	return nil
}

// wrote caches a node the instant it is durable, if it is a leaf: the
// nodes a reader's block index names (Owners.Resolve) are leaves, and
// the writer's own inner nodes would only push them out. An inner node
// already cached — a tree walk fetched it — is replaced rather than left
// stale, because abort repair rebuilds nodes under the same IDs.
func (c *NodeCache) wrote(n Node) {
	s := c.shard(n.ID)
	s.mu.Lock()
	if _, cached := s.entries[n.ID]; n.Leaf || cached {
		c.insertLocked(s, n.ID, n)
	}
	s.mu.Unlock()
}

// Get implements Store with singleflight miss-deduplication.
func (c *NodeCache) Get(ctx context.Context, id NodeID) (Node, error) {
	s := c.shard(id)
	s.mu.Lock()
	if n, ok := s.hitLocked(id); ok {
		s.mu.Unlock()
		c.hits.Add(1)
		return n, nil
	}
	c.misses.Add(1)
	if f, ok := s.flights[id]; ok {
		s.mu.Unlock()
		return c.await(ctx, id, f)
	}
	f := &flight{done: make(chan struct{})}
	s.flights[id] = f
	s.mu.Unlock()

	n, err := c.inner.Get(ctx, id)
	c.complete(s, id, f, n, err == nil, err)
	if err != nil {
		return Node{}, err
	}
	return n, nil
}

// await blocks on another caller's in-flight fetch. If the owner's
// fetch failed — its context may have been canceled, which says
// nothing about this caller's — the miss is retried directly rather
// than propagating a stranger's error into a healthy request.
func (c *NodeCache) await(ctx context.Context, id NodeID, f *flight) (Node, error) {
	select {
	case <-f.done:
	case <-ctx.Done():
		return Node{}, ctx.Err()
	}
	if f.err != nil {
		n, err := c.inner.Get(ctx, id)
		if err != nil {
			return Node{}, err
		}
		s := c.shard(id)
		s.mu.Lock()
		c.insertLocked(s, id, n)
		s.mu.Unlock()
		return n, nil
	}
	if !f.ok {
		return Node{}, fmt.Errorf("mdtree: node %s not found", id.Key())
	}
	return f.n, nil
}

// complete publishes a flight's outcome and caches a found node.
func (c *NodeCache) complete(s *cacheShard, id NodeID, f *flight, n Node, ok bool, err error) {
	f.n, f.ok, f.err = n, ok, err
	s.mu.Lock()
	delete(s.flights, id)
	if err == nil && ok {
		c.insertLocked(s, id, n)
	}
	s.mu.Unlock()
	close(f.done)
}

// GetBatch implements BatchStore. Cached nodes are served from memory;
// the rest are fetched with one inner multi-get (minus any node some
// other caller is already fetching, which is joined instead). A call
// that hits on every id allocates only its result. A repeated id needs
// no bookkeeping: a second hit is a hit, a second miss joins the flight
// the first opened, which this call completes before it waits on any.
func (c *NodeCache) GetBatch(ctx context.Context, ids []NodeID) (map[NodeID]Node, error) {
	out := make(map[NodeID]Node, len(ids))
	var owned, joined []NodeID // misses this call fetches / someone else is fetching
	var ownedFlights, joinedFlights []*flight
	for _, id := range ids {
		s := c.shard(id)
		s.mu.Lock()
		if n, ok := s.hitLocked(id); ok {
			s.mu.Unlock()
			c.hits.Add(1)
			out[id] = n
			continue
		}
		c.misses.Add(1)
		if f, ok := s.flights[id]; ok {
			s.mu.Unlock()
			joined, joinedFlights = append(joined, id), append(joinedFlights, f)
			continue
		}
		f := &flight{done: make(chan struct{})}
		s.flights[id] = f
		s.mu.Unlock()
		owned, ownedFlights = append(owned, id), append(ownedFlights, f)
	}

	if len(owned) > 0 {
		// A plain Store's error may mean absent or unreachable: surface it.
		got, fetchErr := c.fetchDirect(ctx, owned)
		for i, id := range owned {
			n, ok := got[id]
			c.complete(c.shard(id), id, ownedFlights[i], n, ok && fetchErr == nil, fetchErr)
			if ok && fetchErr == nil {
				out[id] = n
			}
		}
		if fetchErr != nil {
			return nil, fetchErr
		}
	}
	// Joined flights: absent (ok=false) stays absent; a flight whose
	// owner failed is retried under this call's own context instead of
	// inheriting the owner's error (it may just have been canceled).
	var retry []NodeID
	for i, id := range joined {
		f := joinedFlights[i]
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		switch {
		case f.err != nil:
			retry = append(retry, id)
		case f.ok:
			out[id] = f.n
		}
	}
	if len(retry) > 0 {
		got, err := c.fetchDirect(ctx, retry)
		if err != nil {
			return nil, err
		}
		for id, n := range got {
			s := c.shard(id)
			s.mu.Lock()
			c.insertLocked(s, id, n)
			s.mu.Unlock()
			out[id] = n
		}
	}
	return out, nil
}

// fetchDirect fetches ids from the inner store: one multi-get when it
// batches, one Get per id otherwise.
func (c *NodeCache) fetchDirect(ctx context.Context, ids []NodeID) (map[NodeID]Node, error) {
	if c.batch != nil {
		c.batchGets.Add(1)
		return c.batch.GetBatch(ctx, ids)
	}
	got := make(map[NodeID]Node, len(ids))
	for _, id := range ids {
		n, err := c.inner.Get(ctx, id)
		if err != nil {
			return nil, err
		}
		got[id] = n
	}
	return got, nil
}

// InvalidateVersion drops every cached node materialized by version v
// of blob b and returns how many were dropped. Callers use it when the
// immutability assumption is knowingly broken: the version manager's
// abort repair re-Builds an aborted version's nodes in place, so a
// writer whose write was aborted must purge what it write-through
// cached or it would keep reading its own pre-abort tree.
func (c *NodeCache) InvalidateVersion(b blob.ID, v blob.Version) int {
	dropped := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for id, e := range s.entries {
			if id.Blob == b && id.Version == v {
				s.drop(e)
				dropped++
			}
		}
		s.mu.Unlock()
	}
	return dropped
}

// Delete implements Deleter: the node is invalidated here and removed
// from the inner store (GC of pruned versions — the one mutation the
// immutability argument allows, deletion).
func (c *NodeCache) Delete(ctx context.Context, id NodeID) error {
	s := c.shard(id)
	s.mu.Lock()
	if e, ok := s.entries[id]; ok {
		s.drop(e)
	}
	s.mu.Unlock()
	d, ok := c.inner.(Deleter)
	if !ok {
		return fmt.Errorf("mdtree: cached store %T cannot delete nodes", c.inner)
	}
	return d.Delete(ctx, id)
}

// putAllSingles is putAll's bounded-concurrency fallback, shared with
// PutBatch over a non-batching inner store.
func putAllSingles(ctx context.Context, st Store, nodes []Node) error {
	sem := make(chan struct{}, putConcurrency)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for _, n := range nodes {
		wg.Add(1)
		sem <- struct{}{}
		go func(n Node) {
			defer func() { <-sem; wg.Done() }()
			if err := st.Put(ctx, n); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(n)
	}
	wg.Wait()
	return firstErr
}
