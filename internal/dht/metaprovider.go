package dht

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
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

// CodeNotFound is ErrNotFound's status code. A miss travels as a
// presence flag in a multi-get's answer, never as a status; the code
// keeps the sentinel apart from every other service's.
const CodeNotFound uint16 = 12

// ErrNotFound is returned when a metadata key is absent from every
// queried replica.
var ErrNotFound = rpc.CodedError(CodeNotFound, "dht: key not found")

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
func (s *MetaService) Mux() *rpc.Mux {
	m := rpc.NewMeteredMux(s.reg)
	m.HandleFrame(mMetaDelete, "delete", s.handleDelete)
	m.HandleFrame(mMetaPutBatch, "put_batch", s.handlePutBatch)
	m.HandleFrame(mMetaGetBatch, "get_batch", s.handleGetBatch)
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
	retry    rpc.Backoff

	// fallbacks counts reads that could not be served by the first
	// replica tried and fell through to a later one (dead or lagging
	// metadata providers make this grow).
	fallbacks atomic.Int64

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
	return &Client{ring: ring, pool: pool, replicas: replicas, retry: metaBackoff}
}

// SetRetry overrides the per-replica retry schedule.
func (c *Client) SetRetry(b rpc.Backoff) { c.retry = b }

// Ring exposes the client's ring (location queries, tests).
func (c *Client) Ring() *Ring { return c.ring }

// Fallbacks reports how many reads fell through past the first replica
// (single and batched gets combined).
func (c *Client) Fallbacks() int64 { return c.fallbacks.Load() }

// callAddr issues one RPC against a specific metadata provider,
// re-dialing and retrying transport failures per the client schedule
// (see rpc.Pool.Call for enc and dec). Puts and deletes are idempotent;
// gets are read-only — all safe to repeat.
func (c *Client) callAddr(ctx context.Context, addr string, m uint16, size int, enc func(*wire.Buffer), dec func([]byte) error) error {
	return c.pool.Call(ctx, c.retry, addr, m, size, enc, dec)
}

// Put stores key on every replica in parallel, a one-key PutEach; it
// fails if any replica write fails (metadata must be durable before a
// version can commit).
func (c *Client) Put(ctx context.Context, key string, val []byte) error {
	return c.PutBatch(ctx, []wire.KV{{Key: key, Val: val}})
}

// fanOut runs fn(0..n-1) concurrently, one of them on the caller's
// goroutine, and returns the first error. Its goroutines share one
// closure, so what a call allocates does not grow with n.
func fanOut(n int, fn func(i int) error) error {
	switch n {
	case 0:
		return nil
	case 1:
		return fn(0)
	}
	var st struct {
		wg   sync.WaitGroup
		next atomic.Int32
		mu   sync.Mutex
		err  error
	}
	run := func() {
		defer st.wg.Done()
		if err := fn(int(st.next.Add(1)) - 1); err != nil {
			st.mu.Lock()
			if st.err == nil {
				st.err = err
			}
			st.mu.Unlock()
		}
	}
	st.wg.Add(n)
	for i := 1; i < n; i++ {
		go run() // a func value without arguments: no closure per goroutine
	}
	run()
	st.wg.Wait()
	return st.err
}

// Get fetches key from the first answering replica, a one-key GetEach.
// It returns ErrNotFound only when every replica authoritatively
// reported the key missing; if any replica was unreachable the miss is
// inconclusive and the transport error is returned instead, so callers
// can distinguish "the key does not exist" from "the key may exist on a
// dead provider".
func (c *Client) Get(ctx context.Context, key string) ([]byte, error) {
	var val []byte // non-nil once found: the frame v arrives in is recycled
	err := c.GetEach(ctx, 1,
		func(_ int, dst []byte) []byte { return append(dst, key...) },
		func(_ int, v []byte) { val = append([]byte{}, v...) })
	if err == nil && val == nil {
		err = ErrNotFound
	}
	if err != nil {
		return nil, err
	}
	return val, nil
}

// Delete removes key from all replicas in parallel (best effort; used
// by GC).
func (c *Client) Delete(ctx context.Context, key string) error {
	addrs := c.ring.Lookup(key, c.replicas)
	if len(addrs) == 0 {
		return errEmptyRing
	}
	return fanOut(len(addrs), func(i int) error {
		return c.callAddr(ctx, addrs[i], mMetaDelete, 8+len(key), func(b *wire.Buffer) { b.String(key) }, nil)
	})
}
