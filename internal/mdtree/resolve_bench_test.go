package mdtree

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"blobseer/internal/blob"
)

// simnetStore models the DHT over a network: every round-trip (one Get
// or one multi-Get, regardless of batch size) costs one RTT. It is the
// store the acceptance benchmarks run on — ns/op is then dominated by
// round-trip count, exactly what the batching work optimizes.
type simnetStore struct {
	*MemStore
	rtt time.Duration
}

func (s *simnetStore) Get(ctx context.Context, id NodeID) (Node, error) {
	time.Sleep(s.rtt)
	return s.MemStore.Get(ctx, id)
}

func (s *simnetStore) GetBatch(ctx context.Context, ids []NodeID) (map[NodeID]Node, error) {
	time.Sleep(s.rtt)
	return s.MemStore.GetBatch(ctx, ids)
}

// benchRTT is small enough to keep -benchtime=1x smokes fast and large
// enough to dwarf in-memory map costs.
const benchRTT = 50 * time.Microsecond

const benchBlocks = 64

func benchTree(b *testing.B) (*simnetStore, blob.Meta) {
	b.Helper()
	st := &simnetStore{MemStore: NewMemStore(), rtt: benchRTT}
	_, m := buildBlocks(b, st, benchBlocks)
	return st, m
}

// BenchmarkResolveSequential is the pre-batching baseline: one blocking
// round-trip per visited node.
func BenchmarkResolveSequential(b *testing.B) {
	st, m := benchTree(b)
	seq := seqBenchStore{st}
	size := int64(benchBlocks) * B
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Resolve(context.Background(), seq, m, 1, size, blob.Range{Off: 0, Len: size}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResolveBatched is the frontier-BFS path: one round-trip per
// tree level.
func BenchmarkResolveBatched(b *testing.B) {
	st, m := benchTree(b)
	size := int64(benchBlocks) * B
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Resolve(context.Background(), st, m, 1, size, blob.Range{Off: 0, Len: size}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResolveCold reads through a NodeCache that never has the
// nodes: batched fetch plus cache insertion overhead.
func BenchmarkResolveCold(b *testing.B) {
	st, m := benchTree(b)
	size := int64(benchBlocks) * B
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := NewNodeCache(st, 0) // fresh cache: all misses
		if _, err := Resolve(context.Background(), cache, m, 1, size, blob.Range{Off: 0, Len: size}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResolveWarm re-reads a range whose tree is fully cached:
// zero DHT round-trips (the many-mappers-one-input pattern).
func BenchmarkResolveWarm(b *testing.B) {
	st, m := benchTree(b)
	size := int64(benchBlocks) * B
	cache := NewNodeCache(st, 0)
	if _, err := Resolve(context.Background(), cache, m, 1, size, blob.Range{Off: 0, Len: size}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Resolve(context.Background(), cache, m, 1, size, blob.Range{Off: 0, Len: size}); err != nil {
			b.Fatal(err)
		}
	}
}

// seqBenchStore hides batching from Resolve (distinct from seqStore so
// the benchmarks do not depend on test-only counters).
type seqBenchStore struct{ Store }

func (s seqBenchStore) GetBatch(ctx context.Context, ids []NodeID) (map[NodeID]Node, error) {
	return getOneByOne(ctx, s.Store, ids)
}

// discardStore keeps nothing: a build timed on it is the build alone.
type discardStore struct{}

func (discardStore) Put(context.Context, Node) error           { return nil }
func (discardStore) PutBatch(context.Context, []Node) error    { return nil }
func (discardStore) Get(context.Context, NodeID) (Node, error) { return Node{}, errNotStored }
func (discardStore) GetBatch(context.Context, []NodeID) (map[NodeID]Node, error) {
	return nil, errNotStored
}
func (discardStore) Delete(context.Context, NodeID) error { return nil }

var errNotStored = errors.New("mdtree: the discard store holds nothing")

// BenchmarkBuildAppend builds the metadata of one aligned one-block
// append onto a blob of 1,000 and of 100,000 earlier appends. Every left
// sibling the build borrows asks the history for its newest writer, an
// old version at the top of the tree; the history's index keeps that
// from scanning back through the versions between, so the 100,000-version
// build costs less than twice the 1,000-version one.
func BenchmarkBuildAppend(b *testing.B) {
	const bs = 64 << 10
	m := blob.Meta{ID: 1, BlockSize: bs, Replication: 1}
	for _, versions := range []int{1000, 100000} {
		h := &blob.History{}
		for v := 1; v <= versions; v++ {
			d := blob.WriteDesc{Version: blob.Version(v), Off: int64(v-1) * bs, Len: bs, SizeAfter: int64(v) * bs, Kind: blob.KindAppend}
			if err := h.Append(d); err != nil {
				b.Fatal(err)
			}
		}
		refs := []BlockRef{{Key: blob.BlockKey{Blob: 1, Nonce: uint64(versions)}, Providers: []string{"p"}, Len: bs}}
		b.Run(fmt.Sprintf("V=%d", versions), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(context.Background(), discardStore{}, m, h, blob.Version(versions), refs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
