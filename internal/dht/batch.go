package dht

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"blobseer/internal/wire"
)

// Batched DHT operations. A metadata tree level touches many keys at
// once; shipping them per-provider in one RPC turns O(keys x replicas)
// serialized round-trips into one parallel fan-out of O(providers)
// round-trips. Immutable metadata makes the semantics simple: any
// replica's answer for a key is the answer.

// PutBatch stores every pair on all of its replicas. Pairs are grouped
// by provider address (each provider receives one mMetaPutBatch RPC
// carrying every pair it is responsible for) and the per-provider RPCs
// run in parallel. Like Put, it fails if any replica write fails.
func (c *Client) PutBatch(ctx context.Context, kvs []wire.KV) error {
	return c.PutEach(ctx, len(kvs),
		func(i int, dst []byte) []byte { return append(dst, kvs[i].Key...) },
		func(i int, b *wire.Buffer) { copy(b.Extend(len(kvs[i].Val)), kvs[i].Val) })
}

// PutEach is PutBatch for a caller that can encode its n pairs itself:
// key appends pair i's key to dst, once per pair before anything is
// sent; val appends its value to b, straight into the frame each
// provider is sent, and runs once more for every retry of that frame, so
// it must be pure. The keys, their placement and the per-provider sends
// live in a record the client recycles: a warm call allocates none of
// them, whatever the number of pairs and providers.
func (c *Client) PutEach(ctx context.Context, n int, key func(i int, dst []byte) []byte, val func(i int, b *wire.Buffer)) error {
	if n == 0 {
		return nil
	}
	pc, ok := c.putCalls.get()
	if !ok {
		pc = &putCall{c: c}
		pc.sendOne = pc.send
	}
	err := pc.place(n, key)
	if err == nil {
		pc.ctx, pc.val = ctx, val
		err = pc.fanOut()
	}
	pc.ctx, pc.val, pc.err = nil, nil, nil
	if cap(pc.keys) <= maxKeptKeys {
		c.putCalls.put(pc)
	}
	return err
}

// maxKeptKeys bounds the key bytes a recycled putCall keeps.
const maxKeptKeys = 64 << 10

// putCall is one PutEach in flight: its pairs' keys and placement, and
// what the goroutines sending them to their providers share.
type putCall struct {
	c *Client
	putPairs
	nodes   []int32 // the distinct ring nodes the pairs go to
	sendOne func()  // send, bound once so that starting it allocates nothing

	ctx  context.Context
	val  func(int, *wire.Buffer)
	next atomic.Int32
	wg   sync.WaitGroup
	mu   sync.Mutex
	err  error
}

// putPairs is a PutEach batch's keys and placement, worked out before
// the first frame goes out and only read after: per pair, idx holds
// where its key ends in keys, then the reps ring nodes it goes to.
type putPairs struct {
	keys []byte
	idx  []int32
	reps int
}

// place works out the keys and placement of n pairs, and the distinct
// ring nodes they go to.
func (pc *putCall) place(n int, key func(i int, dst []byte) []byte) error {
	ring := pc.c.ring
	pc.reps = max(1, min(pc.c.replicas, ring.Len()))
	pc.keys, pc.idx, pc.nodes = pc.keys[:0], pc.idx[:0], pc.nodes[:0]
	for i := 0; i < n; i++ {
		start := len(pc.keys)
		pc.keys = key(i, pc.keys)
		pc.idx = append(pc.idx, int32(len(pc.keys)))
		pc.idx = ring.appendOwners(pc.idx, hash64(pc.keys[start:]), pc.reps)
		if len(pc.idx) != (i+1)*(1+pc.reps) {
			return errors.New("dht: empty ring")
		}
		for _, node := range pc.owners(i) {
			if !slices.Contains(pc.nodes, node) {
				pc.nodes = append(pc.nodes, node)
			}
		}
	}
	return nil
}

// fanOut sends every ring node its pairs, one node from the caller's
// goroutine and the others concurrently, and returns the first error.
func (pc *putCall) fanOut() error {
	k := len(pc.nodes)
	pc.next.Store(0)
	pc.wg.Add(k)
	for i := 1; i < k; i++ {
		go pc.sendOne()
	}
	pc.send()
	pc.wg.Wait()
	return pc.err
}

// send puts the next ring node's pairs.
func (pc *putCall) send() {
	defer pc.wg.Done()
	node := pc.nodes[pc.next.Add(1)-1]
	if err := pc.c.putOwned(pc.ctx, node, pc.putPairs, pc.val); err != nil {
		pc.mu.Lock()
		if pc.err == nil {
			pc.err = err
		}
		pc.mu.Unlock()
	}
}

func (p putPairs) len() int { return len(p.idx) / (1 + p.reps) }

func (p putPairs) key(i int) []byte {
	start := int32(0)
	if i > 0 {
		start = p.idx[(i-1)*(1+p.reps)]
	}
	return p.keys[start:p.idx[i*(1+p.reps)]]
}

func (p putPairs) owners(i int) []int32 {
	at := i*(1+p.reps) + 1
	return p.idx[at : at+p.reps]
}

// Chunking limits: one RPC frame per chunk, kept far below
// wire.MaxFrameSize so even degenerate batches (a write materializing
// millions of nodes on one provider) never hit the frame cap the old
// per-node path was immune to.
const (
	maxBatchPairs = 8192
	maxBatchBytes = 8 << 20
)

// putOwned sends ring node `node` the pairs it owns, a chunk per frame.
func (c *Client) putOwned(ctx context.Context, node int32, ps putPairs, val func(int, *wire.Buffer)) error {
	addr, n := c.ring.nodes[node], ps.len()
	for start := 0; start < n; {
		var pairs, next int
		err := c.callAddr(ctx, addr, mMetaPutBatch, 4+96*min(n-start, maxBatchPairs), func(b *wire.Buffer) {
			b.U32(0) // the pair count, known once the chunk is cut
			pairs = 0
			for next = start; next < n && pairs < maxBatchPairs; next++ {
				if !slices.Contains(ps.owners(next), node) {
					continue
				}
				mark := b.Len()
				b.Bytes32(ps.key(next))
				vmark := b.Len()
				b.U32(0) // the value's length, known once it is encoded
				val(next, b)
				binary.BigEndian.PutUint32(b.Bytes()[vmark:], uint32(b.Len()-vmark-4))
				if pairs > 0 && b.Len() > maxBatchBytes {
					b.Truncate(mark)
					break
				}
				pairs++
			}
			binary.BigEndian.PutUint32(b.Bytes(), uint32(pairs))
		}, nil)
		if err != nil {
			return fmt.Errorf("dht: put batch (%d keys) to %s: %w", pairs, addr, err)
		}
		start = next
	}
	return nil
}

// getState tracks one key's progress through the replica rounds of a
// GetBatch.
type getState struct {
	addrs    []string // replica preference order
	round    int      // next replica index to try
	notFound int      // replicas that authoritatively missed
}

// GetBatch fetches many keys at once. Keys are grouped by their primary
// replica and fetched with one mMetaGetBatch RPC per provider, in
// parallel, one of them from the caller's goroutine (a batch that lives
// on one provider starts no goroutine);
// keys a provider misses (or whose provider is down) fall through to
// the next replica in further rounds. The result maps each found key to
// its value. A key absent from the map was authoritatively missing on
// every replica; if any key could not be resolved either way (all
// remaining replicas unreachable), GetBatch returns an error, because
// for immutable metadata an inconclusive miss must not be read as a
// hole.
func (c *Client) GetBatch(ctx context.Context, keys []string) (map[string][]byte, error) {
	out := make(map[string][]byte, len(keys))
	if len(keys) == 0 {
		return out, nil
	}
	states := make(map[string]*getState, len(keys))
	for _, key := range keys {
		if _, ok := states[key]; ok {
			continue // dedup: one fetch answers every occurrence
		}
		addrs := c.ring.Lookup(key, c.replicas)
		if len(addrs) == 0 {
			return nil, errors.New("dht: empty ring")
		}
		states[key] = &getState{addrs: addrs}
	}

	maxRounds := c.replicas
	for round := 0; round < maxRounds; round++ {
		// Group every unresolved key by the replica it should try next.
		groups := make(map[string][]string)
		for key, st := range states {
			if _, done := out[key]; done || st.round >= len(st.addrs) {
				continue
			}
			addr := st.addrs[st.round]
			st.round++
			if round > 0 {
				c.fallbacks.Add(1)
			}
			groups[addr] = append(groups[addr], key)
		}
		if len(groups) == 0 {
			break
		}
		type result struct {
			addr string
			keys []string
			vals [][]byte // nil entry = authoritative miss
			err  error
		}
		results := make([]result, 0, len(groups))
		for addr, group := range groups {
			results = append(results, result{addr: addr, keys: group})
		}
		_ = fanOut(len(results), func(k int) error {
			res := &results[k]
			res.vals, res.err = c.getBatchOne(ctx, res.addr, res.keys)
			return nil
		})
		for _, res := range results {
			for i, key := range res.keys {
				st := states[key]
				switch {
				case res.vals != nil && res.vals[i] != nil:
					// A value fetched before a later chunk failed is still
					// a value: keep it instead of re-fetching elsewhere.
					if _, done := out[key]; !done {
						out[key] = res.vals[i]
					}
				case res.err != nil:
					// Transport failure: the key stays unresolved and is
					// retried on the next replica (never counted as a miss).
				default:
					st.notFound++
				}
			}
		}
	}

	for key, st := range states {
		if _, ok := out[key]; ok {
			continue
		}
		if st.notFound < len(st.addrs) {
			// At least one replica never answered: the key may exist
			// there, so the caller must not treat this as a miss.
			return nil, fmt.Errorf("dht: get batch: key %q unresolved (%d/%d replicas answered not-found)", key, st.notFound, len(st.addrs))
		}
	}
	return out, nil
}

// getBatchOne fetches keys from one provider, chunking the multi-get
// so neither request nor response can approach the frame limit. The
// returned slice parallels keys; a nil entry is an authoritative miss.
// On error the slice carries whatever earlier chunks resolved, so the
// caller keeps values fetched before the failure. NOTE: with a non-nil
// error a nil entry means "unresolved", not "missing".
func (c *Client) getBatchOne(ctx context.Context, addr string, keys []string) ([][]byte, error) {
	vals := make([][]byte, len(keys))
	for start := 0; start < len(keys); start += maxBatchPairs {
		chunk := keys[start:min(start+maxBatchPairs, len(keys))]
		size := 4
		for _, k := range chunk {
			size += 4 + len(k)
		}
		err := c.callAddr(ctx, addr, mMetaGetBatch, size, func(b *wire.Buffer) { b.StringSlice(chunk) }, func(p []byte) error {
			r := wire.NewReader(p)
			if n := r.U32(); int(n) != len(chunk) {
				return fmt.Errorf("%d answers for %d keys", n, len(chunk))
			}
			own := make([]byte, 0, len(p)) // the values' home: p is recycled
			for i := range chunk {
				found, v := r.Bool(), r.Bytes32()
				if found {
					own = append(own, v...)
					vals[start+i] = own[len(own)-len(v) : len(own) : len(own)]
				}
			}
			return r.Err()
		})
		if err != nil {
			return vals, fmt.Errorf("dht: get batch (%d keys) from %s: %w", len(chunk), addr, err)
		}
	}
	return vals, nil
}

// freeList is a bounded stack of values to reuse, under the discipline
// of wire's free lists: what a warm process allocates depends neither on
// when collections run nor on how many values were ever in use at once.
type freeList[T any] struct {
	mu   sync.Mutex
	idle []T
}

// freeListMax bounds the values a freeList keeps.
const freeListMax = 64

func (l *freeList[T]) get() (v T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.idle)
	if n == 0 {
		return v, false
	}
	v, ok = l.idle[n-1], true
	var zero T
	l.idle[n-1], l.idle = zero, l.idle[:n-1]
	return v, ok
}

func (l *freeList[T]) put(v T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.idle) < freeListMax {
		l.idle = append(l.idle, v)
	}
}
