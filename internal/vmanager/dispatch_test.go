package vmanager

import (
	"context"
	"encoding/binary"
	"math"
	"net"
	"sync"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/rpc"
	"blobseer/internal/wire"
)

// serveTCP serves s over loopback TCP until the test ends, and returns
// its address.
func serveTCP(t *testing.T, s *State) string {
	t.Helper()
	lis, err := rpc.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(NewService(s).Mux())
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	return lis.Addr().String()
}

// TestDurableShardKeepsJournalingOffTheConnection: 8 writers, each on
// a blob of its own, share one pool, so one connection, to a shard with
// a log. Their assigns and commits share fsyncs only if they run on
// handler goroutines: run inline, on the connection's goroutine, each
// record would wait for its own fsync before the next request is read
// (1 fsync per record).
func TestDurableShardKeepsJournalingOffTheConnection(t *testing.T) {
	const writers, pairsEach = 8, 25
	s := openState(t, t.TempDir())
	pool := rpc.NewPool(rpc.TCPDialer)
	t.Cleanup(pool.Close)
	c, ctx := NewClient(pool, serveTCP(t, s)), context.Background()
	ids := make([]blob.ID, writers)
	for i := range ids {
		m, err := c.CreateBlob(ctx, B, 3)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = m.ID
	}
	before := s.log.Status()
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range pairsEach {
				a, err := c.AssignVersion(ctx, id, blob.KindAppend, 0, B, uint64(i+1), math.MaxInt64, benchReplicas...)
				if err == nil {
					err = c.Commit(ctx, id, a.Version)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := fsyncsPerRecord(before, s.log.Status()); got >= 1 {
		t.Errorf("%d writers on one connection to a durable shard: %.3f fsyncs per record, want fewer than 1", writers, got)
	}
}

// TestInMemoryAssignCommitAnswerInRequestOrder: a shard without a log
// answers assign and commit on the connection's goroutine, while a wait
// on the same connection is parked on its handler goroutine: each
// response leaves in request order, so a commit sent right behind its
// assign, before the assign is answered, finds its version assigned.
func TestInMemoryAssignCommitAnswerInRequestOrder(t *testing.T) {
	s := NewState(nil)
	m, err := s.CreateBlob(B, 3)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", serveTCP(t, s))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame := func(id uint64, method uint16, body func(b *wire.Buffer)) []byte {
		b := wire.NewBuffer(64)
		b.U32(0)
		b.U64(id)
		b.U16(method)
		b.U8(0)  // flags: a request
		b.U16(0) // status
		body(b)
		p := b.Bytes()
		binary.BigEndian.PutUint32(p, uint32(len(p)-4))
		return p
	}
	const waitID, k = 100, 8
	// The wait for the last version parks until the last commit.
	reqs := frame(waitID, mWaitPublished, func(b *wire.Buffer) {
		for _, v := range []uint64{uint64(m.ID), 0, k, 0} { // blob, since, at, no timeout
			b.U64(v)
		}
	})
	for v := uint64(1); v <= k; v++ {
		reqs = append(reqs, frame(2*v-1, mAssignVersion, func(b *wire.Buffer) {
			b.U64(uint64(m.ID))
			b.U8(uint8(blob.KindAppend))
			b.I64(0)
			b.I64(B)
			b.U64(v)                      // nonce
			b.U64(math.MaxInt64)          // since: no descriptors back
			b.U64(uint64(blob.NoVersion)) // base
			b.U32(uint32(len(benchReplicas)))
			for _, a := range benchReplicas {
				b.String(a)
			}
		})...)
		reqs = append(reqs, frame(2*v, mCommit, func(b *wire.Buffer) {
			b.U64(uint64(m.ID))
			b.U64(v)
		})...)
	}
	if _, err := conn.Write(reqs); err != nil {
		t.Fatal(err)
	}
	next := uint64(1)
	for waited := false; next <= 2*k || !waited; {
		f, err := wire.ReadFrame(conn, 0)
		if err != nil {
			t.Fatal(err)
		}
		id, status := binary.BigEndian.Uint64(f), binary.BigEndian.Uint16(f[11:])
		if status != rpc.StatusOK {
			t.Fatalf("request %d answered status %d: %s", id, status, f[13:])
		}
		if id == waitID {
			waited = true
			continue
		}
		if id != next {
			t.Fatalf("response to request %d came where request %d's was due", id, next)
		}
		next++
	}
}
