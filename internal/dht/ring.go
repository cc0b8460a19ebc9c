// Package dht implements the distributed hash table BlobSeer stores its
// metadata in (Section III-A3): a consistent-hash ring over metadata
// providers, a metadata-provider RPC service, and a replicated
// key-value client. Distributing the segment-tree nodes over this DHT
// is what removes the centralized-metadata bottleneck the paper blames
// for HDFS's behaviour under concurrency.
//
// # Wire format
//
// All payloads use the package wire codec (big-endian, length-prefixed
// strings and byte slices). Methods 1, 2 and 4, the single-key put and
// get and a storage stat, are retired and their numbers reserved: a
// provider answers them with the rpc layer's unknown-method error. The
// one single-key method left:
//
//	3 mMetaDelete    request:  key string                   response: empty
//
// Keys are stored and fetched only in batches, one multi-key payload per
// provider instead of one RPC per key; Client.Put and Client.Get are
// one-key batches. A put sends every provider that holds a replica of
// any pair one frame (a chunk per frame) with all its pairs, in
// parallel. A get goes in rounds, one per replica: round r sends each
// provider one mMetaGetBatch with the unresolved keys whose r-th replica
// it is, in parallel, so a key its primary misses, or whose primary is
// down, is asked of its next replica in the next round:
//
//	5 mMetaPutBatch  request:  count u32, then per pair: key string | val bytes32
//	                 response: empty (the whole batch fails on any error)
//	6 mMetaGetBatch  request:  count u32, then per key: key string
//	                 response: count u32, then per key (request order):
//	                           found bool | val bytes32 (empty when absent)
//
// A missing key inside mMetaGetBatch is not an RPC error: each entry
// carries its own presence flag, so one response mixes hits and
// authoritative misses and the client can fall through to further
// replicas only for the keys that need it.
//
// An mMetaPutBatch is all-or-nothing: the provider decodes all of it
// before storing any, so a payload cut short stores no pair. A store
// that implements store.BatchPutter (the mem store) then keeps the
// batch with shared backing, every key cut from one string and every
// value from one buffer, two allocations whatever its size. One batch is
// one write's tree nodes, which GC deletes together, or a one-key Put's
// pair, so the shared backing is let go of as a whole.
// The metadata provider answers an mMetaGetBatch with every key cut from
// one string and every value lent by the store and copied once, into the
// response.
//
// # Batches without a copy per key
//
// Client.PutEach and Client.GetEach are the batch calls for a caller
// that encodes its keys and values itself; PutBatch and GetBatch wrap
// them for string keys. Both recycle what a call needs (keys in one
// byte vector, owners as ring indices, the per-provider sends), so a
// warm call allocates per call, not per key. Their callbacks own
// nothing past their return: PutEach's val appends a value to the frame
// being encoded and runs again for every retry of that frame, so it must
// be pure; GetEach's got receives each value straight from its response
// frame, concurrently for keys on different providers, and that val is
// valid only until got returns — the frame is recycled then (and
// poisoned under wire.PoisonReleased), so a value kept must be copied or
// decoded into memory of the caller's.
//
// # Key namespaces
//
// Two key families share the DHT, distinguished by prefix:
//
//	"t<blob>/<version>/<off>/<span>"  segment-tree nodes (package mdtree)
//	"loc/b<blob>/<nonce hex>/<seq>"   location-overlay entries (package
//	                                  repair): value is a stringslice of
//	                                  extra provider addresses holding
//	                                  repair copies of the block
//
// Tree nodes are immutable; overlay entries are whole-value replaced by
// the (single-writer) repair engine and deleted by version GC.
package dht

import (
	"fmt"
	"slices"
	"sort"
)

// DefaultVnodes is the number of virtual nodes per physical metadata
// provider; enough to spread keys within a few percent of uniform.
const DefaultVnodes = 64

// Ring is an immutable consistent-hash ring. Build one with NewRing;
// membership changes create a new Ring (metadata providers are fixed
// for the lifetime of a deployment in the paper's experiments).
type Ring struct {
	points []ringPoint
	nodes  []string
}

type ringPoint struct {
	hash uint64
	node int // index into nodes
}

// NewRing builds a ring over the given node addresses with vnodes
// virtual points each (DefaultVnodes if vnodes <= 0).
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	r := &Ring{nodes: append([]string(nil), nodes...)}
	r.points = make([]ringPoint, 0, len(nodes)*vnodes)
	for i, n := range r.nodes {
		for v := 0; v < vnodes; v++ {
			h := hash64(fmt.Sprintf("%s#%d", n, v))
			r.points = append(r.points, ringPoint{hash: h, node: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
	return r
}

// Nodes returns the ring's member addresses.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Len returns the number of members.
func (r *Ring) Len() int { return len(r.nodes) }

// Lookup returns the addresses of the n distinct nodes responsible for
// key, in preference order (primary first). n is clamped to the number
// of members.
func (r *Ring) Lookup(key string, n int) []string {
	var buf [8]int32
	idx := r.appendOwners(buf[:0], hash64(key), n)
	if len(idx) == 0 {
		return nil
	}
	out := make([]string, len(idx))
	for i, node := range idx {
		out[i] = r.nodes[node]
	}
	return out
}

// appendOwners appends to out the indices (into r.nodes) of the n
// distinct nodes responsible for the key hashing to h, primary first; n
// is clamped to [1, members], and an empty ring appends nothing.
func (r *Ring) appendOwners(out []int32, h uint64, n int) []int32 {
	if len(r.points) == 0 {
		return out
	}
	n = max(1, min(n, len(r.nodes)))
	idx := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	base := len(out)
	for i := 0; len(out)-base < n && i < len(r.points); i++ {
		node := int32(r.points[(idx+i)%len(r.points)].node)
		if !slices.Contains(out[base:], node) {
			out = append(out, node)
		}
	}
	return out
}

// hash64 is FNV-1a over the key's bytes, then a finalizer.
func hash64[T string | []byte](s T) uint64 {
	z := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		z = (z ^ uint64(s[i])) * 1099511628211
	}
	// FNV alone has poor avalanche on short, near-sequential keys
	// (exactly what tree-node identifiers look like); run the sum
	// through a splitmix64-style finalizer so consecutive keys land on
	// independent arcs of the ring.
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
