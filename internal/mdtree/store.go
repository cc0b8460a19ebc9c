package mdtree

import (
	"cmp"
	"context"
	"fmt"
	"sync"

	"blobseer/internal/blob"
	"blobseer/internal/dht"
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
func DecodeNode(id NodeID, val []byte) (Node, error) { return decodeNode(id, val, nil) }

// decodeNode is DecodeNode with a leaf's provider list interned in lists
// when it is not nil.
func decodeNode(id NodeID, val []byte, lists *replicaLists) (Node, error) {
	r := wire.NewReader(val)
	n := Node{ID: id}
	n.Leaf = r.Bool()
	var err error
	if n.Leaf {
		n.Block.Key = blob.BlockKey{
			Blob:  blob.ID(r.U64()),
			Nonce: r.U64(),
			Seq:   r.U32(),
		}
		n.Block.Len = r.I64()
		n.Block.Providers, err = lists.read(r, val)
	} else {
		n.Left = ChildRef{Version: blob.Version(r.U64())}
		n.Right = ChildRef{Version: blob.Version(r.U64())}
	}
	if err == nil {
		err = r.Err()
	}
	if err != nil {
		return Node{}, fmt.Errorf("mdtree: decode %s: %w", id.Key(), err)
	}
	return n, nil
}

// replicaLists interns the provider lists of decoded leaves by their
// encoding: a deployment places blocks on few distinct replica sets, so
// a read decodes a list it has seen before and allocates nothing for it.
// Leaves placed alike share one list, which is read-only. The table
// starts afresh when full.
type replicaLists struct {
	mu sync.Mutex
	m  map[string][]string
}

// maxReplicaLists bounds a replicaLists.
const maxReplicaLists = 4096

// read reads a leaf's provider list, the rest of r's body val: interned
// in l, or a list of its own when l is nil.
func (l *replicaLists) read(r *wire.Reader, val []byte) ([]string, error) {
	if l == nil {
		return r.StringSlice(), nil
	}
	start := len(val) - r.Remaining()
	n := r.U32()
	if r.Err() == nil && uint64(n)*4 > uint64(r.Remaining()) { // each address needs >= 4 prefix bytes
		return nil, wire.ErrShortBuffer
	}
	for i := uint32(0); i < n; i++ {
		r.Bytes32()
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	enc := val[start : len(val)-r.Remaining()]
	l.mu.Lock()
	defer l.mu.Unlock()
	if list, ok := l.m[string(enc)]; ok {
		return list, nil
	}
	if len(l.m) >= maxReplicaLists || l.m == nil {
		l.m = make(map[string][]string)
	}
	list := wire.NewReader(enc).StringSlice()
	l.m[string(enc)] = list
	return list, nil
}

// MemStore is an in-process Store used by unit tests and the
// simulator. It counts
// operations so experiments can charge DHT message costs.
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
func (s *MemStore) Get(ctx context.Context, id NodeID) (Node, error) {
	got, _ := s.GetBatch(ctx, []NodeID{id})
	n, ok := got[id]
	if !ok {
		return Node{}, fmt.Errorf("mdtree: node %s not found", id.Key())
	}
	return n, nil
}

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
	c     *dht.Client
	fills util.FreeList[*fillCall]
	lists replicaLists // the provider lists of the leaves it decodes
}

// NewDHTStore wraps c.
func NewDHTStore(c *dht.Client) *DHTStore { return &DHTStore{c: c} }

// Fallbacks surfaces the DHT client's replica-fallback count (reads
// that could not be served by the first replica tried) so client
// metrics can export it without reaching through the store.
func (s *DHTStore) Fallbacks() int64 { return s.c.Fallbacks() }

// Put implements Store: a one-node PutBatch.
func (s *DHTStore) Put(ctx context.Context, n Node) error { return s.PutBatch(ctx, []Node{n}) }

// Get implements Store: a one-node fill.
func (s *DHTStore) Get(ctx context.Context, id NodeID) (Node, error) {
	var out [1]Node
	if err := s.fill(ctx, []NodeID{id}, out[:]); err != nil {
		return Node{}, err
	}
	if out[0].ID != id {
		return Node{}, dht.ErrNotFound
	}
	return out[0], nil
}

// PutBatch implements Store: the DHT client groups the nodes by
// provider, has each encoded straight into its provider's frame and
// replicates each group with one parallel RPC per provider.
func (s *DHTStore) PutBatch(ctx context.Context, nodes []Node) error {
	return s.c.PutEach(ctx, len(nodes),
		func(i int, dst []byte) []byte { return nodes[i].ID.AppendKey(dst) },
		func(i int, b *wire.Buffer) { encodeNode(b, nodes[i]) })
}

// GetBatch implements Store over the fill path.
func (s *DHTStore) GetBatch(ctx context.Context, ids []NodeID) (map[NodeID]Node, error) {
	nodes := make([]Node, len(ids))
	if err := s.fill(ctx, ids, nodes); err != nil {
		return nil, err
	}
	return byID(ids, nodes), nil
}

// Delete implements Store.
func (s *DHTStore) Delete(ctx context.Context, id NodeID) error {
	return s.c.Delete(ctx, id.Key())
}

// fill implements filler: one dht.GetEach, one multi-get RPC per
// provider with per-key replica fall-through on misses, every node
// decoded straight from its response frame into out.
func (s *DHTStore) fill(ctx context.Context, ids []NodeID, out []Node) error {
	clear(out[:len(ids)])
	f, ok := s.fills.Get()
	if !ok {
		f = &fillCall{}
		f.key, f.got = f.appendKey, f.decode
	}
	f.ids, f.out, f.lists = ids, out, &s.lists
	err := cmp.Or(s.c.GetEach(ctx, len(ids), f.key, f.got), f.bad)
	f.ids, f.out, f.bad = nil, nil, nil
	s.fills.Put(f)
	return err
}

// fillCall is one DHTStore fill in flight. Its callbacks are bound once,
// so that a recycled record fills without allocating.
type fillCall struct {
	ids   []NodeID
	out   []Node
	lists *replicaLists
	mu    sync.Mutex // guards bad: values from several providers decode at once
	bad   error      // the first value that did not decode
	key   func(int, []byte) []byte
	got   func(int, []byte)
}

func (f *fillCall) appendKey(i int, dst []byte) []byte { return f.ids[i].AppendKey(dst) }

func (f *fillCall) decode(i int, val []byte) {
	n, err := decodeNode(f.ids[i], val, f.lists)
	if err != nil {
		f.mu.Lock()
		f.bad = cmp.Or(f.bad, err)
		f.mu.Unlock()
		return
	}
	f.out[i] = n
}
