package dht

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"blobseer/internal/util"
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
// run in parallel. It fails if any replica write fails.
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
	pc, ok := c.putCalls.Get()
	if !ok {
		pc = &putCall{c: c}
		pc.bind(pc.send)
	}
	err := pc.place(c, n, key)
	if err == nil {
		pc.nodes = pc.nodes[:0]
		for i := 0; i < n; i++ {
			for _, node := range pc.owners(i) {
				pc.addNode(node)
			}
		}
		pc.ctx, pc.val = ctx, val
		pc.run()
		err = pc.err
	}
	pc.ctx, pc.val, pc.err = nil, nil, nil
	if cap(pc.keys) <= maxKeptKeys {
		c.putCalls.Put(pc)
	}
	return err
}

// maxKeptKeys bounds the key bytes a recycled batch record keeps.
const maxKeptKeys = 64 << 10

// putCall is one PutEach in flight: its pairs' keys and placement, and
// what the goroutines sending them to their providers share.
type putCall struct {
	c *Client
	placed
	sends

	ctx context.Context
	val func(int, *wire.Buffer)
	mu  sync.Mutex
	err error
}

// send puts the k-th ring node's pairs.
func (pc *putCall) send(k int) {
	if err := pc.c.putOwned(pc.ctx, pc.nodes[k], pc.placed, pc.val); err != nil {
		pc.mu.Lock()
		if pc.err == nil {
			pc.err = err
		}
		pc.mu.Unlock()
	}
}

// placed is a batch's keys and placement, worked out before the first
// frame goes out and only read after: per key, idx holds where it ends
// in keys, then the reps ring nodes it lives on, primary first.
type placed struct {
	keys []byte
	idx  []int32
	reps int
}

// place encodes n keys and works out where each lives on c's ring.
func (p *placed) place(c *Client, n int, key func(i int, dst []byte) []byte) error {
	p.reps = max(1, min(c.replicas, c.ring.Len()))
	p.keys, p.idx = p.keys[:0], p.idx[:0]
	for i := 0; i < n; i++ {
		start := len(p.keys)
		p.keys = key(i, p.keys)
		p.idx = append(p.idx, int32(len(p.keys)))
		p.idx = c.ring.appendOwners(p.idx, hash64(p.keys[start:]), p.reps)
		if len(p.idx) != (i+1)*(1+p.reps) {
			return errEmptyRing
		}
	}
	return nil
}

func (p placed) len() int { return len(p.idx) / (1 + p.reps) }

func (p placed) key(i int) []byte {
	start := int32(0)
	if i > 0 {
		start = p.idx[(i-1)*(1+p.reps)]
	}
	return p.keys[start:p.idx[i*(1+p.reps)]]
}

func (p placed) owners(i int) []int32 {
	at := i*(1+p.reps) + 1
	return p.idx[at : at+p.reps]
}

// sends runs one send per ring node of a batch, the first from the
// caller's goroutine and the others concurrently. Its functions are
// bound once, so that starting a send allocates nothing.
type sends struct {
	nodes []int32 // the distinct ring nodes sent to
	each  func(k int)
	one   func()
	next  atomic.Int32
	wg    sync.WaitGroup
}

// bind sets what a send does: each(k) sends to nodes[k].
func (s *sends) bind(each func(k int)) { s.each, s.one = each, s.sendNext }

func (s *sends) addNode(node int32) {
	if !slices.Contains(s.nodes, node) {
		s.nodes = append(s.nodes, node)
	}
}

func (s *sends) sendNext() {
	defer s.wg.Done()
	s.each(int(s.next.Add(1)) - 1)
}

// run sends to every node, at least one, and waits for all of them.
func (s *sends) run() {
	k := len(s.nodes)
	s.next.Store(0)
	s.wg.Add(k)
	for i := 1; i < k; i++ {
		go s.one()
	}
	s.sendNext()
	s.wg.Wait()
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
func (c *Client) putOwned(ctx context.Context, node int32, ps placed, val func(int, *wire.Buffer)) error {
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

// GetBatch fetches many keys at once (see GetEach). The result maps each
// found key to a copy of its value; a key absent from the map was
// authoritatively missing on every replica.
func (c *Client) GetBatch(ctx context.Context, keys []string) (map[string][]byte, error) {
	out := make(map[string][]byte, len(keys))
	var own []byte // the values' home: the frames they arrive in are recycled
	var mu sync.Mutex
	err := c.GetEach(ctx, len(keys),
		func(i int, dst []byte) []byte { return append(dst, keys[i]...) },
		func(i int, val []byte) {
			mu.Lock()
			defer mu.Unlock()
			if _, ok := out[keys[i]]; !ok {
				own = append(own, val...)
				out[keys[i]] = own[len(own)-len(val) : len(own) : len(own)]
			}
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// GetEach fetches n keys in rounds, one per replica. A round groups the
// unresolved keys by the replica it names for each, and sends each of
// those providers one mMetaGetBatch per chunk of keys, the providers in
// parallel; a key its provider misses, or whose provider is down, is
// asked of its next replica in the next round. key appends key i to
// dst, once per key before anything is sent. got(i, val) runs once for
// every key i found, with val straight from the response frame: val is
// valid only until got returns. Values from different providers arrive
// in parallel, so got may run concurrently for different keys. A key
// that gets no call was authoritatively missing on every replica; if
// any key could not be resolved either way (all its remaining replicas
// unreachable), GetEach returns an error, because for immutable
// metadata an inconclusive miss must not be read as a hole.
func (c *Client) GetEach(ctx context.Context, n int, key func(i int, dst []byte) []byte, got func(i int, val []byte)) error {
	if n == 0 {
		return nil
	}
	var ps placed
	if err := ps.place(c, n, key); err != nil {
		return err
	}
	found := make([]bool, n)
	misses := make([]int, n) // per key: replicas that answered not-found
	var mu sync.Mutex        // guards lastErr
	var lastErr error
	for round := 0; round < ps.reps; round++ {
		var nodes []int32
		asked := map[int32][]int{} // per node: the keys asked of it
		for i := range n {
			if found[i] {
				continue
			}
			node := ps.owners(i)[round]
			if asked[node] == nil {
				nodes = append(nodes, node)
			}
			asked[node] = append(asked[node], i)
		}
		if len(nodes) == 0 {
			break
		}
		// A provider that fails leaves its keys to their next replica.
		util.Windowed(len(nodes), len(nodes), func(k int) error {
			addr, keys := c.ring.nodes[nodes[k]], asked[nodes[k]]
			for len(keys) > 0 {
				chunk := keys[:min(len(keys), maxBatchPairs)]
				keys = keys[len(chunk):]
				if err := c.getChunk(ctx, addr, ps, chunk, found, misses, got); err != nil {
					mu.Lock()
					lastErr = fmt.Errorf("dht: get batch from %s: %w", addr, err)
					mu.Unlock()
					return nil
				}
			}
			return nil
		})
	}
	for i := range n {
		if !found[i] && misses[i] < ps.reps {
			return fmt.Errorf("dht: get batch: key %q unresolved (%d/%d replicas answered not-found): %w", ps.key(i), misses[i], ps.reps, lastErr)
		}
	}
	return nil
}

// getChunk asks addr for the keys of chunk in one frame and marks each
// found or missed. The whole response decodes before any value is
// handed on, so an answer cut short resolves none of its keys.
func (c *Client) getChunk(ctx context.Context, addr string, ps placed, chunk []int, found []bool, misses []int, got func(int, []byte)) error {
	size := 4
	for _, i := range chunk {
		size += 4 + len(ps.key(i))
	}
	return c.callAddr(ctx, addr, mMetaGetBatch, size, func(b *wire.Buffer) {
		b.U32(uint32(len(chunk)))
		for _, i := range chunk {
			b.Bytes32(ps.key(i))
		}
	}, func(p []byte) error {
		r := wire.NewReader(p)
		if k := r.U32(); r.Err() == nil && int(k) != len(chunk) {
			return fmt.Errorf("%d answers for %d keys", k, len(chunk))
		}
		for range chunk {
			r.Bool()
			r.Bytes32()
		}
		if err := r.Err(); err != nil {
			return err
		}
		r = wire.NewReader(p[4:])
		for _, i := range chunk {
			if ok, val := r.Bool(), r.Bytes32(); ok {
				found[i] = true
				got(i, val)
			} else {
				misses[i]++
			}
		}
		return nil
	})
}
