package mdtree

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"blobseer/internal/util"
	"blobseer/internal/wire"
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
// only those: a walk that reaches a leaf the client wrote reads it from
// memory, while the O(log n) inner nodes of each write are fetched only
// by a walk that needs them. Clients read no node (Owners): a cache
// serves the tree walk, as the simulator and the benchmarks run it.
//
// Concurrent misses for the same node are deduplicated singleflight-
// style: one fetch travels to the store, every other caller waits for
// its result. Under the paper's heavy-concurrency read workloads this
// collapses N simultaneous fetches of the shared tree spine into one.
// A call's misses travel together: one flight, one inner fetch.
//
// A fill writes into the caller's slices, and a flight is recycled once
// its owner and every caller that joined it are done with it, so a
// warm cache allocates only the entries it keeps: a miss costs no
// bookkeeping of its own.
type NodeCache struct {
	inner   Store
	shards  []cacheShard
	perCap  int // max entries per shard
	flights util.FreeList[*flight]

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
	// lru is the most recent entry of a ring that runs colder by next,
	// so lru.prev is the coldest; nil when the shard is empty. A ring
	// with no sentinel entry keeps an empty shard a few words.
	lru     *cacheEntry
	flights map[NodeID]flightSlot
}

// cacheEntry is a cached node and its place in its shard's LRU ring.
type cacheEntry struct {
	id         NodeID
	n          Node
	prev, next *cacheEntry
}

// unlink takes e out of the shard's ring.
func (s *cacheShard) unlink(e *cacheEntry) {
	switch {
	case e.next == e:
		s.lru = nil
	case s.lru == e:
		s.lru = e.next
	}
	e.prev.next, e.next.prev = e.next, e.prev
}

// touch makes e (new, or unlinked) the shard's most recent entry.
func (s *cacheShard) touch(e *cacheEntry) {
	if s.lru == nil {
		e.prev, e.next = e, e
	} else {
		e.prev, e.next = s.lru.prev, s.lru
		e.prev.next, e.next.prev = e, e
	}
	s.lru = e
}

// drop removes e from the shard.
func (s *cacheShard) drop(e *cacheEntry) {
	s.unlink(e)
	delete(s.entries, e.id)
}

// flight is one call's fetch of the nodes it missed, which concurrent
// callers missing any of them wait on instead of fetching them again.
// Its owner and each caller that joins it hold a reference; the last to
// let go recycles it (NodeCache.release).
type flight struct {
	ids   []NodeID
	nodes []Node // parallels ids once landed; the zero Node where absent
	err   error  // the fetch failed: presence undecided
	refs  atomic.Int32

	mu     sync.Mutex
	landed bool          // complete ran
	done   chan struct{} // made by the first joiner that has to wait; closed when landed
}

// wait blocks until f has landed or ctx ends.
func (f *flight) wait(ctx context.Context) error {
	f.mu.Lock()
	if f.landed {
		f.mu.Unlock()
		return nil
	}
	if f.done == nil {
		f.done = make(chan struct{})
	}
	done := f.done
	f.mu.Unlock()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// flightSlot is where a node is being fetched: slot j of flight f.
type flightSlot struct {
	f *flight
	j int32
}

// NewNodeCache wraps inner with a cache holding at most capacity nodes
// (DefaultCacheSize if capacity <= 0).
func NewNodeCache(inner Store, capacity int) *NodeCache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	perCap := (capacity + cacheShardCount - 1) / cacheShardCount
	c := &NodeCache{inner: inner, perCap: perCap, shards: make([]cacheShard, cacheShardCount)}
	for i := range c.shards {
		c.shards[i].entries = make(map[NodeID]*cacheEntry)
		c.shards[i].flights = make(map[NodeID]flightSlot)
	}
	return c
}

// Inner exposes the wrapped store (tests, stats).
func (c *NodeCache) Inner() Store { return c.inner }

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
// hit, so the cache never serves an older copy than its store's.
func (c *NodeCache) insertLocked(s *cacheShard, id NodeID, n Node) {
	e, ok := s.entries[id]
	switch {
	case ok:
		s.unlink(e)
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
	s.unlink(e)
	s.touch(e)
	return e.n, true
}

// Put implements Store: a one-node PutBatch.
func (c *NodeCache) Put(ctx context.Context, n Node) error { return c.PutBatch(ctx, []Node{n}) }

// PutBatch implements Store: write-through, then cache (see wrote).
func (c *NodeCache) PutBatch(ctx context.Context, nodes []Node) error {
	if err := c.inner.PutBatch(ctx, nodes); err != nil {
		return err
	}
	for _, n := range nodes {
		c.wrote(n)
	}
	return nil
}

// wrote caches a node the instant it is durable, if it is a leaf: a
// walk that reaches it reads it from memory, and the writer's own inner
// nodes would only push leaves out. An inner node already cached — a
// tree walk fetched it — is replaced rather than left to differ from
// the store.
func (c *NodeCache) wrote(n Node) {
	s := c.shard(n.ID)
	s.mu.Lock()
	if _, cached := s.entries[n.ID]; n.Leaf || cached {
		c.insertLocked(s, n.ID, n)
	}
	s.mu.Unlock()
}

// Get implements Store: a one-node fill.
func (c *NodeCache) Get(ctx context.Context, id NodeID) (Node, error) {
	ids, out := [1]NodeID{id}, [1]Node{}
	if err := c.get(ctx, ids[:], out[:]); err != nil {
		return Node{}, err
	}
	if out[0].ID != id {
		return Node{}, fmt.Errorf("mdtree: node %s not found", id.Key())
	}
	return out[0], nil
}

// GetBatch implements Store, a map over the fill path. A call that
// hits on every id allocates only its result.
func (c *NodeCache) GetBatch(ctx context.Context, ids []NodeID) (map[NodeID]Node, error) {
	var buf [32]Node // on the stack
	nodes := buf[:]
	if len(ids) > len(buf) {
		nodes = make([]Node, len(ids))
	}
	nodes = nodes[:len(ids)]
	if err := c.get(ctx, ids, nodes); err != nil {
		return nil, err
	}
	return byID(ids, nodes), nil
}

// fill implements filler.
func (c *NodeCache) fill(ctx context.Context, ids []NodeID, out []Node) error {
	return c.get(ctx, ids, out)
}

// pending is a miss of a get: out[i] comes from a flight's slot.
type pending struct {
	i int32
	flightSlot
}

// get fills out[i] with node ids[i], the zero Node where it is absent.
// Hits are served from memory; the other ids are fetched with one flight
// of this call, minus those another call's flight is already fetching,
// which are waited for. A repeated id needs no bookkeeping: a second hit
// is a hit, a second miss joins the flight the first opened, which this
// call completes before it waits on any.
func (c *NodeCache) get(ctx context.Context, ids []NodeID, out []Node) error {
	var buf [16]pending
	misses := buf[:0]
	var own *flight
	for i, id := range ids {
		s := c.shard(id)
		s.mu.Lock()
		if n, ok := s.hitLocked(id); ok {
			s.mu.Unlock()
			c.hits.Add(1)
			out[i] = n
			continue
		}
		c.misses.Add(1)
		slot, ok := s.flights[id]
		switch {
		case !ok:
			if own == nil {
				own = c.newFlight()
			}
			slot = flightSlot{f: own, j: int32(len(own.ids))}
			own.ids = append(own.ids, id)
			s.flights[id] = slot
		case slot.f != own:
			slot.f.refs.Add(1) // the flight is still in the shard: its owner holds it too
		}
		s.mu.Unlock()
		misses = append(misses, pending{i: int32(i), flightSlot: slot})
	}
	var err error
	if own != nil {
		own.nodes = slices.Grow(own.nodes[:0], cap(own.ids))[:len(own.ids)]
		own.err = c.fetch(ctx, own.ids, own.nodes)
		c.complete(own)
		err = own.err
	}
	// A flight whose owner failed is retried under this call's own
	// context instead of inheriting the owner's error (it may just have
	// been canceled).
	var retry []int32
	for _, m := range misses {
		if err == nil && m.f != own {
			err = m.f.wait(ctx)
		}
		switch {
		case err != nil:
		case m.f.err != nil:
			retry = append(retry, m.i)
		default:
			out[m.i] = m.f.nodes[m.j]
		}
		if m.f != own {
			c.release(m.f)
		}
	}
	if own != nil {
		c.release(own)
	}
	if err != nil {
		return err
	}
	if len(retry) > 0 {
		return c.refetch(ctx, ids, out, retry)
	}
	return nil
}

// newFlight returns an empty flight its caller holds the one reference
// to: a released one, else a new one.
func (c *NodeCache) newFlight() *flight {
	f, ok := c.flights.Get()
	if !ok {
		f = new(flight)
	}
	f.refs.Store(1)
	return f
}

// release drops one reference to f; the last recycles it. Its nodes are
// cleared, or scribbled over when wire.PoisonReleased is on, so that a
// caller still reading them sees no stale node.
func (c *NodeCache) release(f *flight) {
	if f.refs.Add(-1) > 0 {
		return
	}
	if wire.Poisoning() {
		for i := range f.nodes {
			f.nodes[i] = Node{ID: NodeID{Off: -1, Span: -1}}
		}
	} else {
		clear(f.nodes)
	}
	f.ids, f.nodes, f.err = f.ids[:0], f.nodes[:0], nil
	f.landed, f.done = false, nil
	c.flights.Put(f)
}

// complete publishes a flight's outcome: the nodes found are cached, and
// the flight leaves the shards before its waiters are let go.
func (c *NodeCache) complete(f *flight) {
	for j, id := range f.ids {
		s := c.shard(id)
		s.mu.Lock()
		delete(s.flights, id)
		if f.err == nil && f.nodes[j].ID == id {
			c.insertLocked(s, id, f.nodes[j])
		}
		s.mu.Unlock()
	}
	f.mu.Lock()
	f.landed = true
	if f.done != nil {
		close(f.done)
	}
	f.mu.Unlock()
}

// refetch fetches the nodes ids[i], i in at, into out and caches them.
func (c *NodeCache) refetch(ctx context.Context, ids []NodeID, out []Node, at []int32) error {
	some := make([]NodeID, len(at))
	for k, i := range at {
		some[k] = ids[i]
	}
	nodes := make([]Node, len(at))
	if err := c.fetch(ctx, some, nodes); err != nil {
		return err
	}
	for k, i := range at {
		out[i] = nodes[k]
		if nodes[k].ID == some[k] {
			s := c.shard(some[k])
			s.mu.Lock()
			c.insertLocked(s, some[k], nodes[k])
			s.mu.Unlock()
		}
	}
	return nil
}

// fetch gets ids from the inner store into out, the zero Node where
// absent, with one batch (fillFrom).
func (c *NodeCache) fetch(ctx context.Context, ids []NodeID, out []Node) error {
	c.batchGets.Add(1)
	return fillFrom(ctx, c.inner, ids, out)
}

// Delete implements Store: the node is invalidated here and removed
// from the inner store (GC of pruned versions — the one mutation the
// immutability argument allows, deletion).
func (c *NodeCache) Delete(ctx context.Context, id NodeID) error {
	s := c.shard(id)
	s.mu.Lock()
	if e, ok := s.entries[id]; ok {
		s.drop(e)
	}
	s.mu.Unlock()
	return c.inner.Delete(ctx, id)
}
