package core

import (
	"bytes"
	"context"
	"math/rand/v2"
	"sync"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/mdtree"
	"blobseer/internal/wire"
)

// discardingMeta is a metadata store that stores nothing: what a write
// allocates beside it is the write path's own.
type discardingMeta struct{ mdtree.Store }

func (discardingMeta) PutBatch(context.Context, []mdtree.Node) error { return nil }

// TestWarmWriteAllocations: a warm one-block Blob.Write allocates, in
// client and daemons together, the provider's copy of the block and its
// key, and nothing else once its metadata batch stores nothing. Its
// working set (block refs, placement, descriptors) is the client's
// recycled one; it was 6 while the refs, the placement and the
// descriptors were vectors of their own per write, and the provider made
// an upload record and a block writer per put.
func TestWarmWriteAllocations(t *testing.T) {
	const block = 64 << 10
	d := startMini(t, 1, discardingMeta{})
	c, _ := d.newClient(t)
	ctx := context.Background()
	b, err := c.CreateBlob(ctx, block, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{7}, block)
	write := func() {
		if _, err := b.Write(ctx, 0, data); err != nil {
			t.Fatal(err)
		}
	}
	for range 16 { // connections, frames and free lists warm
		write()
	}
	n := testing.AllocsPerRun(200, write)
	t.Logf("%v allocations per warm one-block write", n)
	if n != 2 {
		t.Errorf("a warm one-block write allocates %v times, want 2: the stored block and its key", n)
	}
}

// TestRecycledWriteRecordsStayInTheirCall: eight writers share one
// client, each writing runs of 1–4 blocks stamped with its own id and
// round, while the client's write working sets are recycled under them
// and scribbled over on release (wire.PoisonReleased). A write whose
// refs, placement or descriptors outlived its call would store or index
// blocks of another: every version read back must hold its own stamp.
func TestRecycledWriteRecordsStayInTheirCall(t *testing.T) {
	wire.PoisonReleased(true)
	t.Cleanup(func() { wire.PoisonReleased(false) })
	const block, writers, rounds = 4 << 10, 8, 12
	d := startMini(t, 3, mdtree.NewMemStore())
	c, _ := d.newClient(t)
	ctx := context.Background()
	b, err := c.CreateBlob(ctx, block, 2)
	if err != nil {
		t.Fatal(err)
	}
	type written struct {
		v    blob.Version
		off  int64
		data []byte
	}
	var mu sync.Mutex
	var all []written
	var wg sync.WaitGroup
	for g := range writers {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 66))
			for r := range rounds {
				data := bytes.Repeat([]byte{byte(g*rounds + r)}, (1+rng.IntN(4))*block)
				off := int64(g) * 4 * block
				v, err := b.Write(ctx, off, data)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				all = append(all, written{v, off, data})
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	for _, w := range all {
		if _, err := b.WaitPublished(ctx, w.v, 0); err != nil {
			t.Fatal(err)
		}
		got, err := readVersion(ctx, b, w.v, w.off+int64(len(w.data)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[w.off:], w.data) {
			t.Fatalf("version %d reads back other bytes than it wrote", w.v)
		}
	}
}
