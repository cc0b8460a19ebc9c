package mdtree

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"

	"blobseer/internal/blob"
	"blobseer/internal/util"
	"blobseer/internal/wire"
)

// EncodeNode serializes a node's value (the identity lives in the key).
func EncodeNode(n Node) []byte {
	b := wire.NewBuffer(64)
	encodeNode(b, n)
	return b.Bytes()
}

func encodeNode(b *wire.Buffer, n Node) {
	b.Bool(n.Leaf)
	if n.Leaf {
		b.U64(uint64(n.Block.Key.Blob))
		b.U64(n.Block.Key.Nonce)
		b.U32(n.Block.Key.Seq)
		b.I64(n.Block.Len)
		b.StringSlice(n.Block.Providers)
	} else {
		b.U64(uint64(n.Left.Version))
		b.U64(uint64(n.Right.Version))
	}
}

// DecodeNode parses a node value fetched under id. Nothing it returns
// aliases val, which may be a recycled frame.
func DecodeNode(id NodeID, val []byte) (Node, error) {
	r := wire.NewReader(val)
	n := Node{ID: id}
	n.Leaf = r.Bool()
	if n.Leaf {
		n.Block.Key = blob.BlockKey{
			Blob:  blob.ID(r.U64()),
			Nonce: r.U64(),
			Seq:   r.U32(),
		}
		n.Block.Len = r.I64()
		n.Block.Providers = r.StringSlice()
	} else {
		n.Left = ChildRef{Version: blob.Version(r.U64())}
		n.Right = ChildRef{Version: blob.Version(r.U64())}
	}
	if err := r.Err(); err != nil {
		return Node{}, fmt.Errorf("mdtree: decode %s: %w", id.Key(), err)
	}
	return n, nil
}

// MemStore is an in-process Store used by unit tests. It counts
// operations so tests can pin the batches a walk or a build sends.
type MemStore struct {
	mu         sync.RWMutex
	nodes      map[string]Node
	puts       int64 // individual nodes stored
	gets       int64 // individual nodes fetched
	putBatches int64 // PutBatch calls, a Put's included
	getBatches int64 // GetBatch calls, a Get's included
}

// NewMemStore returns an empty in-memory tree store.
func NewMemStore() *MemStore { return &MemStore{nodes: make(map[string]Node)} }

// Put implements Store: a one-node PutBatch.
func (s *MemStore) Put(ctx context.Context, n Node) error { return s.PutBatch(ctx, []Node{n}) }

// Get implements Store: a one-node GetBatch.
func (s *MemStore) Get(ctx context.Context, id NodeID) (Node, error) { return getOne(ctx, s, id) }

// Has reports whether the node exists (tests).
func (s *MemStore) Has(id NodeID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.nodes[id.Key()]
	return ok
}

// Len returns the number of stored nodes.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.nodes)
}

// Ops returns cumulative (puts, gets), counting individual nodes.
func (s *MemStore) Ops() (puts, gets int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.puts, s.gets
}

// BatchOps returns the number of batches put and fetched, one-node ones
// included — the simulated round-trip count of the batched protocol.
func (s *MemStore) BatchOps() (putBatches, getBatches int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.putBatches, s.getBatches
}

// PutBatch implements Store: all nodes land atomically under one lock,
// counting as one round-trip.
func (s *MemStore) PutBatch(_ context.Context, nodes []Node) error {
	s.mu.Lock()
	for _, n := range nodes {
		n.Block.Providers = slices.Clone(n.Block.Providers) // the writer's, recycled
		s.nodes[n.ID.Key()] = n
	}
	s.puts += int64(len(nodes))
	s.putBatches++
	s.mu.Unlock()
	return nil
}

// GetBatch implements Store: missing nodes are omitted from the result,
// mirroring the DHT's authoritative-miss semantics.
func (s *MemStore) GetBatch(_ context.Context, ids []NodeID) (map[NodeID]Node, error) {
	out := make(map[NodeID]Node, len(ids))
	s.mu.Lock()
	s.gets += int64(len(ids))
	s.getBatches++
	for _, id := range ids {
		if n, ok := s.nodes[id.Key()]; ok {
			out[id] = n
		}
	}
	s.mu.Unlock()
	return out, nil
}

// Delete implements Store.
func (s *MemStore) Delete(_ context.Context, id NodeID) error {
	s.mu.Lock()
	delete(s.nodes, id.Key())
	s.mu.Unlock()
	return nil
}

// DHTStore adapts the metadata DHT client to the tree Store interface —
// the production path: tree nodes distributed over metadata providers.
type DHTStore struct {
	c       dhtClient
	batches util.FreeList[*nodeBatch] // PutBatch's encoders
}

// dhtClient is what a DHTStore asks of the metadata DHT's client
// (dht.Client), named here so that importing the block index does not
// link the DHT.
type dhtClient interface {
	PutEach(ctx context.Context, n int, key func(i int, dst []byte) []byte, val func(i int, b *wire.Buffer)) error
	GetEach(ctx context.Context, n int, key func(i int, dst []byte) []byte, got func(i int, val []byte)) error
	Delete(ctx context.Context, key string) error
}

// nodeBatch encodes one PutBatch's nodes for the DHT client. It is
// recycled with its method values bound, so a batch hands the client
// its key and value encoders without allocating either.
type nodeBatch struct {
	nodes  []Node
	key    func(i int, dst []byte) []byte // nb.appendKey
	encode func(i int, b *wire.Buffer)    // nb.encodeNode
}

func (nb *nodeBatch) appendKey(i int, dst []byte) []byte { return nb.nodes[i].ID.AppendKey(dst) }
func (nb *nodeBatch) encodeNode(i int, b *wire.Buffer)   { encodeNode(b, nb.nodes[i]) }

// NewDHTStore wraps c, a *dht.Client.
func NewDHTStore(c dhtClient) *DHTStore { return &DHTStore{c: c} }

// Put implements Store: a one-node PutBatch.
func (s *DHTStore) Put(ctx context.Context, n Node) error { return s.PutBatch(ctx, []Node{n}) }

// Get implements Store: a one-node GetBatch.
func (s *DHTStore) Get(ctx context.Context, id NodeID) (Node, error) { return getOne(ctx, s, id) }

// PutBatch implements Store: the DHT client groups the nodes by
// provider, has each encoded straight into its provider's frame and
// replicates each group with one parallel RPC per provider.
func (s *DHTStore) PutBatch(ctx context.Context, nodes []Node) error {
	nb, ok := s.batches.Get()
	if !ok {
		nb = new(nodeBatch)
		nb.key, nb.encode = nb.appendKey, nb.encodeNode
	}
	nb.nodes = nodes
	err := s.c.PutEach(ctx, len(nodes), nb.key, nb.encode)
	nb.nodes = nil
	s.batches.Put(nb)
	return err
}

// GetBatch implements Store: one dht.GetEach, one multi-get RPC per
// provider with per-key replica fall-through on misses, every node
// decoded straight from its response frame.
func (s *DHTStore) GetBatch(ctx context.Context, ids []NodeID) (map[NodeID]Node, error) {
	out := make(map[NodeID]Node, len(ids))
	var mu sync.Mutex // values from several providers decode at once
	var bad error     // the first value that did not decode
	err := s.c.GetEach(ctx, len(ids),
		func(i int, dst []byte) []byte { return ids[i].AppendKey(dst) },
		func(i int, val []byte) {
			n, err := DecodeNode(ids[i], val)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				bad = cmp.Or(bad, err)
				return
			}
			out[ids[i]] = n
		})
	if err := cmp.Or(err, bad); err != nil {
		return nil, err
	}
	return out, nil
}

// Delete implements Store.
func (s *DHTStore) Delete(ctx context.Context, id NodeID) error {
	return s.c.Delete(ctx, id.Key())
}
