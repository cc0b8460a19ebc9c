package mdtree

import (
	"context"
	"slices"
	"sync"
)

// NodeCache is a bounded cache of tree nodes in front of any Store. Nodes
// are immutable once written (Section III-A3), so GC's Delete is its one
// invalidation. No client reads a tree node (Owners): the cache serves
// tree walks, in tests and the benchmark's resolve probe.
type NodeCache struct {
	inner    Store
	capacity int
	mu       sync.Mutex
	nodes    map[NodeID]Node
	stats    CacheStats // its Size set by Stats
}

// DefaultCacheSize holds the full tree of a 64 GB blob at 64 MB blocks.
const DefaultCacheSize = 1 << 16

// NewNodeCache wraps inner with a cache of capacity nodes (<= 0: DefaultCacheSize).
func NewNodeCache(inner Store, capacity int) *NodeCache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &NodeCache{inner: inner, capacity: capacity, nodes: make(map[NodeID]Node)}
}

// CacheStats is a snapshot of the cache's counters.
type CacheStats struct {
	Hits      int64 // lookups served from memory
	Misses    int64 // lookups that had to touch the store
	Evictions int64 // entries dropped by the capacity bound
	BatchGets int64 // batched multi-get round-trips to the inner store
	Size      int64 // entries currently cached
}

// Stats returns the cache counters.
func (c *NodeCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Size = int64(len(c.nodes))
	return c.stats
}

// insertLocked caches n, emptying the cache first when it is full.
func (c *NodeCache) insertLocked(n Node) {
	if _, ok := c.nodes[n.ID]; !ok && len(c.nodes) >= c.capacity {
		c.stats.Evictions += int64(len(c.nodes))
		clear(c.nodes)
	}
	c.nodes[n.ID] = n
}

// Put implements Store: a one-node PutBatch.
func (c *NodeCache) Put(ctx context.Context, n Node) error { return c.PutBatch(ctx, []Node{n}) }

// PutBatch implements Store: write-through, caching leaves and refreshing cached nodes.
func (c *NodeCache) PutBatch(ctx context.Context, nodes []Node) error {
	if err := c.inner.PutBatch(ctx, nodes); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range nodes {
		if _, cached := c.nodes[n.ID]; n.Leaf || cached {
			n.Block.Providers = slices.Clone(n.Block.Providers) // the writer's, recycled
			c.insertLocked(n)
		}
	}
	return nil
}

// Get implements Store: a one-node GetBatch.
func (c *NodeCache) Get(ctx context.Context, id NodeID) (Node, error) { return getOne(ctx, c, id) }

// GetBatch implements Store: hits from memory, misses cached from one inner GetBatch.
func (c *NodeCache) GetBatch(ctx context.Context, ids []NodeID) (map[NodeID]Node, error) {
	out := make(map[NodeID]Node, len(ids))
	var misses []NodeID
	c.mu.Lock()
	for _, id := range ids {
		if n, ok := c.nodes[id]; ok {
			out[id] = n
		} else {
			misses = append(misses, id)
		}
	}
	c.stats.Hits += int64(len(ids) - len(misses))
	c.stats.Misses += int64(len(misses))
	c.mu.Unlock()
	if len(misses) == 0 {
		return out, nil
	}
	got, err := c.inner.GetBatch(ctx, misses)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.BatchGets++
	if err != nil {
		return nil, err
	}
	for id, n := range got {
		out[id] = n
		c.insertLocked(n)
	}
	return out, nil
}

// Delete implements Store: the node leaves the cache and the inner store.
func (c *NodeCache) Delete(ctx context.Context, id NodeID) error {
	c.mu.Lock()
	delete(c.nodes, id)
	c.mu.Unlock()
	return c.inner.Delete(ctx, id)
}
