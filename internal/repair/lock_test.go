package repair

import (
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/pmanager"
	"blobseer/internal/rpc"
)

// stallingKV never answers its first Get, until the caller's context
// ends; every later call is served by a MemKV.
type stallingKV struct {
	*MemKV
	once    sync.Once
	stalled chan struct{} // closed once the first Get is waiting
}

func (k *stallingKV) Get(ctx context.Context, key string) ([]byte, error) {
	first := false
	k.once.Do(func() { first = true })
	if !first {
		return k.MemKV.Get(ctx, key)
	}
	close(k.stalled)
	<-ctx.Done()
	return nil, ctx.Err()
}

// secondCaller runs call under a context that ends after 50 ms, and
// fails the test unless it returns that context's error well within a
// few seconds: it waited for a lock held by a caller that is stuck on
// the network, and must leave when its own context ends.
func secondCaller(t *testing.T, name string, call func(context.Context) error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- call(ctx) }()
	select {
	case err := <-done:
		if err != ctx.Err() {
			t.Errorf("a second %s behind a stuck one returned %v, want its context's %v", name, err, ctx.Err())
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("a second %s behind a stuck one still waits 5 s after its context ended", name)
	}
}

// TestLocksLetWaitersLeave: the overlay's stripe lock and the engine's
// pass lock are held across network waits, so a caller queued behind a
// holder stuck on a KV or a provider manager that never answers must
// leave when its own context ends, with ctx.Err().
func TestLocksLetWaitersLeave(t *testing.T) {
	key := blob.BlockKey{Blob: 1, Nonce: 2, Seq: 3}

	t.Run("Overlay.Add", func(t *testing.T) {
		kv := &stallingKV{MemKV: NewMemKV(), stalled: make(chan struct{})}
		o := NewOverlay(kv)
		ctx, cancel := context.WithCancel(context.Background())
		first := make(chan error, 1)
		go func() { first <- o.Add(ctx, key, []string{"p1"}) }()
		<-kv.stalled
		secondCaller(t, "Add on the same stripe", func(ctx context.Context) error {
			return o.Add(ctx, key, []string{"p2"})
		})
		cancel()
		if err := <-first; !errors.Is(err, context.Canceled) {
			t.Errorf("the stuck Add returned %v once canceled", err)
		}
	})

	t.Run("Engine.RunOnce", func(t *testing.T) {
		// A provider manager that reads its requests and never answers.
		n := rpc.NewInprocNetwork()
		lis, err := n.Listen("pmanager")
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		asked := make(chan struct{}, 1)
		go func() {
			for {
				conn, err := lis.Accept()
				if err != nil {
					return
				}
				go func() {
					defer conn.Close()
					var b [1]byte
					if _, err := conn.Read(b[:]); err == nil {
						asked <- struct{}{}
						io.Copy(io.Discard, conn)
					}
				}()
			}
		}()
		pool := rpc.NewPool(n.Dial)
		defer pool.Close()
		e := New(Config{PM: pmanager.NewClient(pool, "pmanager"), Overlay: NewOverlay(NewMemKV())})
		ctx, cancel := context.WithCancel(context.Background())
		first := make(chan error, 1)
		go func() {
			_, err := e.RunOnce(ctx)
			first <- err
		}()
		<-asked
		secondCaller(t, "RunOnce", func(ctx context.Context) error {
			_, err := e.RunOnce(ctx)
			return err
		})
		cancel()
		if err := <-first; !errors.Is(err, context.Canceled) {
			t.Errorf("the stuck pass returned %v once canceled", err)
		}
	})
}
