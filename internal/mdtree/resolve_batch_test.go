package mdtree

import (
	"context"
	"sync/atomic"
	"testing"

	"blobseer/internal/blob"
)

// tripStore counts store round-trips: each Get and each GetBatch is one
// trip, no matter how many nodes a batch carries.
type tripStore struct {
	*MemStore
	trips atomic.Int64
}

func (s *tripStore) Get(ctx context.Context, id NodeID) (Node, error) {
	s.trips.Add(1)
	return s.MemStore.Get(ctx, id)
}

func (s *tripStore) GetBatch(ctx context.Context, ids []NodeID) (map[NodeID]Node, error) {
	s.trips.Add(1)
	return s.MemStore.GetBatch(ctx, ids)
}

// seqStore fetches a batch one Get per node, a trip each — the
// pre-batching behaviour used as a baseline.
type seqStore struct{ *tripStore }

func (s seqStore) GetBatch(ctx context.Context, ids []NodeID) (map[NodeID]Node, error) {
	return getOneByOne(ctx, s.tripStore, ids)
}

// getOneByOne is a batch-blind GetBatch: one st.Get per id, in turn.
func getOneByOne(ctx context.Context, st Store, ids []NodeID) (map[NodeID]Node, error) {
	out := make(map[NodeID]Node, len(ids))
	for _, id := range ids {
		n, err := st.Get(ctx, id)
		if err != nil {
			return nil, err
		}
		out[id] = n
	}
	return out, nil
}

// treeDepth is the number of levels of a tree spanning nBlocks blocks:
// the batched Resolve's round-trip budget.
func treeDepth(nBlocks int) int64 {
	d := int64(1)
	for span := int64(1); span < int64(nBlocks); span *= 2 {
		d++
	}
	return d
}

func TestResolveBatchedRoundTripsAreLogarithmic(t *testing.T) {
	// The structural speedup of the issue: resolving an N-block range
	// must cost O(depth) batched round-trips, not O(N) sequential ones.
	ctx := context.Background()
	for _, nBlocks := range []int{4, 16, 64, 256} {
		ts := &tripStore{MemStore: NewMemStore()}
		_, m := buildBlocks(t, ts, nBlocks)
		ts.trips.Store(0)
		size := int64(nBlocks) * B
		ext, err := Resolve(ctx, ts, m, 1, size, blob.Range{Off: 0, Len: size})
		if err != nil {
			t.Fatal(err)
		}
		if len(ext) != nBlocks {
			t.Fatalf("n=%d: %d extents", nBlocks, len(ext))
		}
		if got, depth := ts.trips.Load(), treeDepth(nBlocks); got > depth {
			t.Errorf("n=%d: batched resolve took %d round-trips, want <= depth %d", nBlocks, got, depth)
		}
		// The same resolve through a batch-blind store pays per node.
		seq := seqStore{ts}
		ts.trips.Store(0)
		if _, err := Resolve(ctx, seq, m, 1, size, blob.Range{Off: 0, Len: size}); err != nil {
			t.Fatal(err)
		}
		if got := ts.trips.Load(); got < int64(nBlocks) {
			t.Errorf("n=%d: sequential baseline took %d round-trips, expected >= %d", nBlocks, got, nBlocks)
		}
	}
}

func TestResolveBatchedMatchesSequential(t *testing.T) {
	// Extent-for-extent equivalence of the BFS rewrite against the
	// batch-blind path, across writes that share, bridge and hole.
	ctx := context.Background()
	ts := &tripStore{MemStore: NewMemStore()}
	m := meta()
	h := &blob.History{}
	mustAppend(t, h, blob.WriteDesc{Version: 1, Off: 0, Len: 4 * B, SizeAfter: 4 * B, Kind: blob.KindAppend})
	if _, err := Build(ctx, ts, m, h, 1, refs(1, 4, 0)); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, h, blob.WriteDesc{Version: 2, Off: 0, Len: 2 * B, SizeAfter: 4 * B})
	if _, err := Build(ctx, ts, m, h, 2, refs(2, 2, 0)); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, h, blob.WriteDesc{Version: 3, Off: 6 * B, Len: B, SizeAfter: 8 * B})
	if _, err := Build(ctx, ts, m, h, 3, refs(3, 1, 0)); err != nil {
		t.Fatal(err)
	}
	ranges := []blob.Range{
		{Off: 0, Len: 8 * B},
		{Off: B / 2, Len: 3 * B},
		{Off: 5 * B, Len: 3 * B},
		{Off: 2*B - 5, Len: 10},
	}
	for _, r := range ranges {
		batched, err := Resolve(ctx, ts, m, 3, 8*B, r)
		if err != nil {
			t.Fatalf("batched resolve %v: %v", r, err)
		}
		sequential, err := Resolve(ctx, seqStore{ts}, m, 3, 8*B, r)
		if err != nil {
			t.Fatalf("sequential resolve %v: %v", r, err)
		}
		if len(batched) != len(sequential) {
			t.Fatalf("range %v: %d batched extents vs %d sequential", r, len(batched), len(sequential))
		}
		for i := range batched {
			if !extentEqual(batched[i], sequential[i]) {
				t.Errorf("range %v extent %d: batched %+v != sequential %+v", r, i, batched[i], sequential[i])
			}
		}
	}
}

func extentEqual(a, b Extent) bool {
	if a.FileOff != b.FileOff || a.Len != b.Len || a.HasData != b.HasData || a.DataOff != b.DataOff {
		return false
	}
	if a.Block.Key != b.Block.Key || a.Block.Len != b.Block.Len {
		return false
	}
	if len(a.Block.Providers) != len(b.Block.Providers) {
		return false
	}
	for i := range a.Block.Providers {
		if a.Block.Providers[i] != b.Block.Providers[i] {
			return false
		}
	}
	return true
}

func TestResolveBatchedMissingNodeFails(t *testing.T) {
	// A reference to a node no replica has must fail loudly, not read as
	// a hole.
	ctx := context.Background()
	st := NewMemStore()
	_, m := buildBlocks(t, st, 4)
	if err := st.Delete(ctx, NodeID{Blob: 1, Version: 1, Off: 0, Span: 2 * B}); err != nil {
		t.Fatal(err)
	}
	if _, err := Resolve(ctx, st, m, 1, 4*B, blob.Range{Off: 0, Len: 4 * B}); err == nil {
		t.Error("resolve with a missing inner node succeeded")
	}
}

func TestBuildUsesOneBatchPutPerWrite(t *testing.T) {
	st := NewMemStore()
	buildBlocks(t, st, 32)
	putBatches, _ := st.BatchOps()
	if putBatches != 1 {
		t.Errorf("build issued %d put batches, want 1", putBatches)
	}
	puts, _ := st.Ops()
	if puts != 63 { // 32 leaves + 31 inner
		t.Errorf("build stored %d nodes, want 63", puts)
	}
}
