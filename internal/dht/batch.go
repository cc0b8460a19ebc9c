package dht

import (
	"bytes"
	"context"
	"encoding/binary"
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

// GetEach fetches n keys in rounds, one per replica. A round sends every
// provider one mMetaGetBatch (a chunk per frame) carrying the unresolved
// keys it is the next replica of — the primaries first, all providers in
// parallel, one from the caller's goroutine — and a key its provider
// misses, or whose provider is down, falls through to its next replica
// in the next round. key appends key i to dst, once per key before
// anything is sent; a key that repeats is fetched once. got(i, val) runs
// once for every key i found, with val straight from the response frame:
// val is valid only until got returns. Values from different providers
// arrive in parallel, so got may run concurrently for different keys. A key
// that gets no call was authoritatively missing on every replica; if any
// key could not be resolved either way (all its remaining replicas
// unreachable), GetEach returns an error, because for immutable metadata
// an inconclusive miss must not be read as a hole. Like PutEach's, the
// keys, their placement and the sends live in a record the client
// recycles: a warm call allocates none of them.
func (c *Client) GetEach(ctx context.Context, n int, key func(i int, dst []byte) []byte, got func(i int, val []byte)) error {
	if n == 0 {
		return nil
	}
	gc, ok := c.getCalls.Get()
	if !ok {
		gc = &getCall{c: c}
		gc.bind(gc.send)
	}
	err := gc.place(c, n, key)
	if err == nil {
		gc.ctx, gc.got = ctx, got
		err = gc.rounds()
	}
	gc.ctx, gc.got, gc.lastErr = nil, nil, nil
	if cap(gc.keys) <= maxKeptKeys {
		c.getCalls.Put(gc)
	}
	return err
}

// getCall is one GetEach in flight. During a round at is only read: the
// senders share it, and each writes found and misses of its own keys
// alone.
type getCall struct {
	c *Client
	placed
	sends
	per    []*getSend       // the sends of a round, by node
	at     []int32          // per key: the ring node asked this round, askedNone or repeated
	link   []int32          // per key: the next key spelled the same, -1 for none
	found  []bool           // per key: answered
	misses []int32          // per key: replicas that answered not-found
	first  map[uint64]int32 // key hash -> its first key, to find repeats

	ctx     context.Context
	got     func(int, []byte)
	mu      sync.Mutex // guards lastErr
	lastErr error
}

// Values of getCall.at besides ring nodes.
const (
	askedNone = -1 // found: nothing left to ask
	repeated  = -2 // a repeat of an earlier key, answered with it
)

// rounds asks every key of each replica in turn until all are resolved.
func (gc *getCall) rounds() error {
	n := gc.len()
	gc.linkRepeats(n)
	for round := 0; round < gc.reps; round++ {
		gc.nodes = gc.nodes[:0]
		for i := 0; i < n; i++ {
			switch {
			case gc.at[i] == repeated:
			case gc.found[i]:
				gc.at[i] = askedNone
			default:
				gc.at[i] = gc.owners(i)[round]
				gc.addNode(gc.at[i])
				if round > 0 {
					gc.c.fallbacks.Add(1)
				}
			}
		}
		if len(gc.nodes) == 0 {
			break
		}
		for len(gc.per) < len(gc.nodes) {
			s := &getSend{gc: gc}
			s.enc, s.dec = s.encode, s.decode
			gc.per = append(gc.per, s)
		}
		gc.run()
	}
	for i := 0; i < n; i++ {
		if gc.at[i] != repeated && !gc.found[i] && int(gc.misses[i]) < gc.reps {
			return fmt.Errorf("dht: get batch: key %q unresolved (%d/%d replicas answered not-found): %w", gc.key(i), gc.misses[i], gc.reps, gc.lastErr)
		}
	}
	return nil
}

// linkRepeats resets the per-key state of n keys and links every key
// spelled like an earlier one to it.
func (gc *getCall) linkRepeats(n int) {
	gc.at = slices.Grow(gc.at[:0], n)[:n]
	gc.link = slices.Grow(gc.link[:0], n)[:n]
	gc.found = slices.Grow(gc.found[:0], n)[:n]
	gc.misses = slices.Grow(gc.misses[:0], n)[:n]
	clear(gc.at)
	clear(gc.found)
	clear(gc.misses)
	for i := range gc.link {
		gc.link[i] = -1
	}
	if n == 1 {
		return
	}
	if gc.first == nil {
		gc.first = make(map[uint64]int32, n)
	}
	clear(gc.first)
	for i := 0; i < n; i++ {
		h := hash64(gc.key(i))
		f, seen := gc.first[h]
		switch {
		case !seen:
			gc.first[h] = int32(i)
		case bytes.Equal(gc.key(int(f)), gc.key(i)): // else a hash collision, asked on its own
			gc.at[i] = repeated
			gc.link[i], gc.link[f] = gc.link[f], int32(i)
		}
	}
}

// send asks the k-th ring node of the round for its keys, a chunk per
// frame. A failed call leaves the rest of them unresolved, to be asked
// of their next replica.
func (gc *getCall) send(k int) {
	s := gc.per[k]
	s.node = gc.nodes[k]
	addr, n := gc.c.ring.nodes[s.node], gc.len()
	size := min(4+4*n+len(gc.keys), 1<<20)
	for s.start = 0; ; s.start = s.next {
		for s.start < n && gc.at[s.start] != s.node {
			s.start++
		}
		if s.start == n {
			return
		}
		if err := gc.c.callAddr(gc.ctx, addr, mMetaGetBatch, size, s.enc, s.dec); err != nil {
			gc.mu.Lock()
			gc.lastErr = fmt.Errorf("dht: get batch from %s: %w", addr, err)
			gc.mu.Unlock()
			return
		}
	}
}

// getSend is one provider's share of a round: the chunk in flight asks
// it for the keys in [start, next) that at names it for, asked of them.
// Its encoder and decoder are bound once, so that a recycled call sends
// without allocating.
type getSend struct {
	gc                 *getCall
	node               int32
	start, next, asked int
	enc                func(*wire.Buffer)
	dec                func([]byte) error
}

// encode writes the chunk's request, from start on.
func (s *getSend) encode(b *wire.Buffer) {
	gc, n := s.gc, s.gc.len()
	b.U32(0) // the key count, known once the chunk is cut
	s.asked = 0
	for s.next = s.start; s.next < n && s.asked < maxBatchPairs; s.next++ {
		if gc.at[s.next] == s.node {
			b.Bytes32(gc.key(s.next))
			s.asked++
		}
	}
	binary.BigEndian.PutUint32(b.Bytes(), uint32(s.asked))
}

// decode hands the chunk's values on. The whole response decodes before
// any of them does, so an answer cut short resolves none of its keys.
func (s *getSend) decode(p []byte) error {
	r := wire.NewReader(p)
	if k := r.U32(); r.Err() == nil && int(k) != s.asked {
		return fmt.Errorf("%d answers for %d keys", k, s.asked)
	}
	for i := 0; i < s.asked; i++ {
		r.Bool()
		r.Bytes32()
	}
	if err := r.Err(); err != nil {
		return err
	}
	r = wire.NewReader(p[4:])
	gc := s.gc
	for i := s.start; i < s.next; i++ {
		if gc.at[i] != s.node {
			continue
		}
		found, val := r.Bool(), r.Bytes32()
		if !found {
			gc.misses[i]++
			continue
		}
		gc.found[i] = true
		for j := i; j >= 0; j = int(gc.link[j]) {
			gc.got(j, val)
		}
	}
	return nil
}
