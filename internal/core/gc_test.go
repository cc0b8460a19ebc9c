package core_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/cluster"
	"blobseer/internal/util"
	"blobseer/internal/vmanager"
)

const gcBlock = int64(4 * util.KB)

func gcCluster(t *testing.T) *cluster.BlobSeer {
	t.Helper()
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 4,
		MetaProviders: 2,
		BlockSize:     gcBlock,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	return cl
}

func fill(b byte, blocks int) []byte {
	return bytes.Repeat([]byte{b}, int(gcBlock)*blocks)
}

// storedBlocks sums block items across all data providers.
func storedBlocks(cl *cluster.BlobSeer) int64 {
	var n int64
	for _, addr := range cl.ProviderAddrs {
		n += cl.ProviderService(addr).Store().Stats().Items
	}
	return n
}

// TestGCFreesOverwrittenBlocks replays Figure 1 and prunes everything
// below the final version: v1's two overwritten blocks are freed, its
// two shared blocks survive, and the kept snapshot reads back intact.
func TestGCFreesOverwrittenBlocks(t *testing.T) {
	cl := gcCluster(t)
	ctx := context.Background()
	c := cl.NewClient("")
	m, err := c.Create(ctx, gcBlock, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendBlob(ctx, c, m.ID, fill('a', 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := writeBlob(ctx, c, m.ID, gcBlock, fill('x', 2)); err != nil {
		t.Fatal(err)
	}
	v3, err := appendBlob(ctx, c, m.ID, fill('e', 1))
	if err != nil {
		t.Fatal(err)
	}

	before := storedBlocks(cl)
	if before != 7 { // 4 + 2 + 1 differential blocks
		t.Fatalf("expected 7 stored blocks before GC, got %d", before)
	}

	st, err := c.GC(ctx, m.ID, v3)
	if err != nil {
		t.Fatal(err)
	}
	if st.From != 1 || st.To != v3 {
		t.Errorf("pruned [%d,%d), want [1,%d)", st.From, st.To, v3)
	}
	if st.BlocksFreed != 2 {
		t.Errorf("freed %d blocks, want 2 (v1's overwritten middle)", st.BlocksFreed)
	}
	if after := storedBlocks(cl); after != before-2 {
		t.Errorf("stored blocks %d -> %d, want %d", before, after, before-2)
	}

	// The kept snapshot is untouched.
	got, err := readBlob(ctx, c, m.ID, v3, 0, 5*gcBlock)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append(fill('a', 1), fill('x', 2)...), append(fill('a', 1), fill('e', 1)...)...)
	if !bytes.Equal(got, want) {
		t.Fatal("kept snapshot changed after GC")
	}

	// Pruned snapshots are gone, with the dedicated error.
	if _, err := readBlob(ctx, c, m.ID, 1, 0, gcBlock); !errors.Is(err, vmanager.ErrPruned) {
		t.Fatalf("read of pruned version: got %v, want ErrPruned", err)
	}
}

// TestGCIdempotentAndMonotone: pruning twice at the same point frees
// nothing more; pruning backwards is a no-op; pruning an unpublished
// version is rejected.
func TestGCIdempotentAndMonotone(t *testing.T) {
	cl := gcCluster(t)
	ctx := context.Background()
	c := cl.NewClient("")
	m, err := c.Create(ctx, gcBlock, 1)
	if err != nil {
		t.Fatal(err)
	}
	var last blob.Version
	for i := 0; i < 3; i++ {
		if last, err = writeBlob(ctx, c, m.ID, 0, fill(byte('a'+i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.GC(ctx, m.ID, last+1); !errors.Is(err, vmanager.ErrBadPrune) {
		t.Fatalf("pruning beyond published: got %v, want ErrBadPrune", err)
	}
	st, err := c.GC(ctx, m.ID, last)
	if err != nil {
		t.Fatal(err)
	}
	if st.BlocksFreed != 2 {
		t.Errorf("first sweep freed %d blocks, want 2", st.BlocksFreed)
	}
	st, err = c.GC(ctx, m.ID, last)
	if err != nil {
		t.Fatal(err)
	}
	if st.BlocksFreed != 0 || st.NodesFreed != 0 {
		t.Errorf("second sweep freed %d blocks / %d nodes, want 0/0", st.BlocksFreed, st.NodesFreed)
	}
	if _, err := c.GC(ctx, m.ID, 1); err != nil {
		t.Errorf("backwards prune should be a no-op, got %v", err)
	}
}

// TestGCRandomSchedules drives random write/append/GC schedules and
// checks every kept version against a flat reference model after each
// sweep — the end-to-end safety property of differential GC.
func TestGCRandomSchedules(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cl := gcCluster(t)
			ctx := context.Background()
			c := cl.NewClient("")
			m, err := c.Create(ctx, gcBlock, 1)
			if err != nil {
				t.Fatal(err)
			}

			// Reference: the flat contents of every version.
			ref := map[blob.Version][]byte{}
			cur := []byte{}
			prunedBelow := blob.Version(1)
			var latest blob.Version

			for step := 0; step < 24; step++ {
				blocks := 1 + rng.Intn(3)
				data := fill(byte('a'+step%26), blocks)
				var v blob.Version
				if len(cur) > 0 && rng.Intn(2) == 0 {
					// Overwrite at a random aligned offset. Keep the write
					// inside the blob or exactly extending it.
					maxOff := int64(len(cur)) / gcBlock
					off := int64(rng.Intn(int(maxOff)+1)) * gcBlock
					if off+int64(len(data)) < int64(len(cur)) {
						// mid-blob writes must cover whole blocks: data
						// already is whole blocks, fine.
					}
					v, err = writeBlob(ctx, c, m.ID, off, data)
					if err != nil {
						t.Fatal(err)
					}
					next := append([]byte(nil), cur...)
					if need := off + int64(len(data)); int64(len(next)) < need {
						next = append(next, make([]byte, need-int64(len(next)))...)
					}
					copy(next[off:], data)
					cur = next
				} else {
					v, err = appendBlob(ctx, c, m.ID, data)
					if err != nil {
						t.Fatal(err)
					}
					cur = append(append([]byte(nil), cur...), data...)
				}
				latest = v
				ref[v] = append([]byte(nil), cur...)

				// Occasionally garbage-collect up to a random kept point.
				if rng.Intn(4) == 0 && latest > prunedBelow {
					keep := prunedBelow + blob.Version(rng.Intn(int(latest-prunedBelow))) + 1
					if _, err := c.GC(ctx, m.ID, keep); err != nil {
						t.Fatalf("gc keep=%d: %v", keep, err)
					}
					prunedBelow = keep
				}

				// Validate every kept version byte-for-byte.
				for kv := prunedBelow; kv <= latest; kv++ {
					want := ref[kv]
					got, err := readBlob(ctx, c, m.ID, kv, 0, int64(len(want)))
					if err != nil {
						t.Fatalf("step %d: read kept v%d: %v", step, kv, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("step %d: kept v%d diverged from reference", step, kv)
					}
				}
				// And a pruned one (if any) must fail.
				if prunedBelow > 1 {
					if _, err := readBlob(ctx, c, m.ID, prunedBelow-1, 0, gcBlock); !errors.Is(err, vmanager.ErrPruned) {
						t.Fatalf("step %d: pruned v%d still readable (err=%v)", step, prunedBelow-1, err)
					}
				}
			}
		})
	}
}
