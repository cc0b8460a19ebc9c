package dht

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

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
// key appends pair i's key to dst, val appends its value to b. Both go
// straight into the frame each provider is sent, and run once more for
// every retry of that frame, so they must be pure.
func (c *Client) PutEach(ctx context.Context, n int, key func(i int, dst []byte) []byte, val func(i int, b *wire.Buffer)) error {
	if n == 0 {
		return nil
	}
	kbuf := make([]byte, 0, 96)
	if n == 1 {
		b := wire.NewBuffer(128)
		val(0, b)
		return c.Put(ctx, string(key(0, kbuf)), b.Bytes())
	}
	// owners[i*reps:][:reps] are the ring nodes pair i goes to.
	reps := max(1, min(c.replicas, c.ring.Len()))
	owners := make([]int32, 0, n*reps)
	var nodes []int32 // distinct owners
	for i := 0; i < n; i++ {
		owners = c.ring.appendOwners(owners, hash64(key(i, kbuf)), reps)
		if len(owners) != (i+1)*reps {
			return errors.New("dht: empty ring")
		}
		for _, node := range owners[i*reps:] {
			if !slices.Contains(nodes, node) {
				nodes = append(nodes, node)
			}
		}
	}
	return c.eachReplica(len(nodes), func(k int) error {
		return c.putOwned(ctx, nodes[k], n, reps, owners, key, val)
	})
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
func (c *Client) putOwned(ctx context.Context, node int32, n, reps int, owners []int32,
	key func(int, []byte) []byte, val func(int, *wire.Buffer)) error {
	addr, kbuf := c.ring.nodes[node], make([]byte, 0, 96)
	for start := 0; start < n; {
		var pairs, next int
		err := c.callAddr(ctx, addr, mMetaPutBatch, 4+96*min(n-start, maxBatchPairs), func(b *wire.Buffer) {
			b.U32(0) // the pair count, known once the chunk is cut
			pairs = 0
			for next = start; next < n && pairs < maxBatchPairs; next++ {
				if !slices.Contains(owners[next*reps:][:reps], node) {
					continue
				}
				mark := b.Len()
				b.Bytes32(key(next, kbuf))
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
// replica and fetched with one parallel mMetaGetBatch RPC per provider;
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
			keys []string
			vals [][]byte // nil entry = authoritative miss
			err  error
		}
		results := make([]result, 0, len(groups))
		var (
			wg sync.WaitGroup
			mu sync.Mutex
		)
		for addr, group := range groups {
			wg.Add(1)
			go func(addr string, group []string) {
				defer wg.Done()
				vals, err := c.getBatchOne(ctx, addr, group)
				mu.Lock()
				results = append(results, result{keys: group, vals: vals, err: err})
				mu.Unlock()
			}(addr, group)
		}
		wg.Wait()
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
