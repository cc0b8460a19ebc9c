package dht

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"

	"blobseer/internal/obs"
	"blobseer/internal/rpc"
	"blobseer/internal/store"
	"blobseer/internal/util"
	"blobseer/internal/wire"
)

// RPC method numbers for the metadata provider service. Methods 1, 2
// and 4 (single-key put and get, stat) are retired; their numbers stay
// reserved.
const (
	_ uint16 = iota + 1
	_
	mMetaDelete
	_
	mMetaPutBatch
	mMetaGetBatch
)

var errEmptyRing = errors.New("dht: empty ring")

// MetaService is the metadata-provider daemon implementation: a plain
// KV shell over a store.Store. Tree nodes, being immutable once
// written (the paper's "no existing metadata is ever modified"),
// make replication trivial: any replica answer is correct.
type MetaService struct {
	store store.Store

	reg       *obs.Registry
	mPuts     *obs.Counter
	mGets     *obs.Counter
	mBatchPut *obs.Histogram // pairs per put-batch RPC
	mBatchGet *obs.Histogram // keys per get-batch RPC
	mBytesIn  *obs.Counter
	mBytesOut *obs.Counter

	pairVecs util.FreeList[[]store.Pair] // handlePutBatch's decoded batches, recycled
	lentVecs util.FreeList[[]lent]       // handleGetBatch's answers, recycled
}

// NewMetaService returns a metadata provider over st.
func NewMetaService(st store.Store) *MetaService {
	s := &MetaService{store: st, reg: obs.NewRegistry()}
	s.mPuts = s.reg.Counter("puts")
	s.mGets = s.reg.Counter("gets")
	s.mBatchPut = s.reg.Histogram("put_batch_size")
	s.mBatchGet = s.reg.Histogram("get_batch_size")
	s.mBytesIn = s.reg.Counter("bytes_in")
	s.mBytesOut = s.reg.Counter("bytes_out")
	s.reg.GaugeFunc("store_items", func() int64 { return st.Stats().Items })
	s.reg.GaugeFunc("store_bytes", func() int64 { return st.Stats().Bytes })
	return s
}

// Store exposes the underlying store (tests, failure injection).
func (s *MetaService) Store() store.Store { return s.store }

// Metrics exposes the metadata provider's registry (per-method counts,
// errors and latency, keys put and got, batch size histograms, store
// occupancy) for HTTP export.
func (s *MetaService) Metrics() *obs.Registry { return s.reg }

// Mux returns the RPC dispatch table, metered on the service's registry.
// A lending store (mem://) keeps its values in memory, so its methods
// wait on nothing and run inline (rpc's dispatch rule); a file store's
// wait on the disk.
func (s *MetaService) Mux() *rpc.Mux {
	m := rpc.NewMeteredMux("meta", s.reg)
	handle := m.HandleFrame
	if _, ok := s.store.(store.Lender); ok {
		handle = m.HandleInline
	}
	handle(mMetaDelete, "delete", s.handleDelete)
	handle(mMetaPutBatch, "put_batch", s.handlePutBatch)
	handle(mMetaGetBatch, "get_batch", s.handleGetBatch)
	return m
}

// value returns key's value: lent when the store lends (store.Lender),
// so that the response frame is its only copy.
func (s *MetaService) value(key []byte) ([]byte, error) {
	if l, ok := s.store.(store.Lender); ok {
		return l.Lend(key, 0, -1)
	}
	return s.store.Get(string(key))
}

func (s *MetaService) handleDelete(ctx context.Context, payload []byte) (*wire.Buffer, error) {
	r := wire.NewReader(payload)
	key := r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return nil, s.store.Delete(key)
}

// handlePutBatch stores every pair of a multi-put, and none when the
// payload does not decode whole; any store failure fails the RPC (the
// client treats the whole batch as failed: metadata must be durable
// before a version can commit). A store.BatchPutter copies the batch in
// bulk; any other store takes a Put per pair.
func (s *MetaService) handlePutBatch(ctx context.Context, payload []byte) (*wire.Buffer, error) {
	r := wire.NewReader(payload)
	n := r.U32()
	if r.Err() != nil || uint64(n)*8 > uint64(r.Remaining()) { // each pair needs >= 8 prefix bytes
		return nil, wire.ErrShortBuffer
	}
	pairs, _ := s.pairVecs.Get()
	if cap(pairs) < int(n) {
		pairs = make([]store.Pair, 0, n)
	}
	defer func() {
		if cap(pairs) <= maxBatchPairs {
			clear(pairs) // the pairs alias the request
			s.pairVecs.Put(pairs[:0])
		}
	}()
	var in int64
	for i := uint32(0); i < n; i++ {
		pairs = append(pairs, store.Pair{Key: r.Bytes32(), Val: r.Bytes32()})
		in += int64(len(pairs[i].Val))
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	s.mBatchPut.Observe(int64(n))
	if bp, ok := s.store.(store.BatchPutter); ok {
		if err := bp.PutBatch(pairs); err != nil {
			return nil, err
		}
	} else {
		for _, p := range pairs {
			if err := s.store.Put(string(p.Key), p.Val); err != nil {
				return nil, err
			}
		}
	}
	s.mPuts.Add(int64(n))
	s.mBytesIn.Add(in)
	return nil, nil
}

// handleGetBatch answers a multi-get. A missing key is not an RPC
// error: each requested key gets a presence flag so one response
// carries hits and authoritative misses side by side. Every key is
// looked up as the request's bytes, and every value is lent and copied
// once, into a response sized to fit them all.
func (s *MetaService) handleGetBatch(ctx context.Context, payload []byte) (*wire.Buffer, error) {
	r := wire.NewReader(payload)
	n := r.U32()
	if r.Err() != nil || uint64(n)*4 > uint64(r.Remaining()) { // each key needs >= 4 prefix bytes
		return nil, wire.ErrShortBuffer
	}
	vals, _ := s.lentVecs.Get()
	defer func() {
		if cap(vals) <= maxBatchPairs {
			clear(vals) // the values are the store's
			s.lentVecs.Put(vals[:0])
		}
	}()
	vals = slices.Grow(vals, int(n))
	size := 4
	for i := uint32(0); i < n; i++ {
		k := r.Bytes32()
		if err := r.Err(); err != nil {
			return nil, err
		}
		val, err := s.value(k)
		switch {
		case err == store.ErrNotFound:
		case err != nil:
			return nil, err
		default:
			vals = append(vals, lent{val: val, ok: true})
			size += 5 + len(val)
			continue
		}
		vals = append(vals, lent{})
		size += 5
	}
	s.mBatchGet.Observe(int64(n))
	s.mGets.Add(int64(n))
	s.mBytesOut.Add(int64(size - 4 - 5*len(vals))) // the values alone
	b := rpc.NewFrame(size)
	b.U32(n)
	for _, v := range vals {
		b.Bool(v.ok)
		b.Bytes32(v.val)
	}
	return b, nil
}

// lent is one answer of a multi-get: the value as the store holds it.
type lent struct {
	val []byte
	ok  bool
}

// Client is the replicated DHT client used by BlobSeer writers and
// readers. Writes go to all replicas (metadata is tiny and immutable);
// reads try replicas in order and succeed on the first hit, which also
// provides availability when a metadata provider dies.
type Client struct {
	ring     *Ring
	pool     *rpc.Pool
	replicas int

	putCalls util.FreeList[*putCall] // PutEach's records, recycled
}

// metaBackoff is the per-replica retry schedule. It is deliberately
// shorter than rpc.DefaultBackoff: reads already fall back across
// replicas, so a dead metadata provider should fail over quickly
// rather than be retried at length.
var metaBackoff = rpc.Backoff{Attempts: 4, Base: 5 * time.Millisecond, Max: 100 * time.Millisecond}

// NewClient returns a DHT client over the given ring with the given
// replication factor (clamped to ring size, minimum 1).
func NewClient(ring *Ring, pool *rpc.Pool, replicas int) *Client {
	if replicas < 1 {
		replicas = 1
	}
	return &Client{ring: ring, pool: pool, replicas: replicas}
}

// callAddr issues one RPC against a specific metadata provider,
// re-dialing and retrying transport failures per metaBackoff (see
// rpc.Pool.Call for enc and dec). Puts and deletes are idempotent;
// gets are read-only — all safe to repeat.
func (c *Client) callAddr(ctx context.Context, addr string, m uint16, size int, enc func(*wire.Buffer), dec func([]byte) error) error {
	return c.pool.Call(ctx, metaBackoff, addr, m, size, enc, dec)
}

// Delete removes key from all replicas in parallel (best effort; used
// by GC). Every replica is asked; the first failure is returned.
func (c *Client) Delete(ctx context.Context, key string) error {
	addrs := c.ring.Lookup(key, c.replicas)
	if len(addrs) == 0 {
		return errEmptyRing
	}
	var mu sync.Mutex
	var first error
	util.Windowed(len(addrs), len(addrs), func(i int) error {
		if err := c.callAddr(ctx, addrs[i], mMetaDelete, 8+len(key), func(b *wire.Buffer) { b.String(key) }, nil); err != nil {
			mu.Lock()
			if first == nil {
				first = err
			}
			mu.Unlock()
		}
		return nil // a failure must not keep the other replicas unasked
	})
	return first
}
