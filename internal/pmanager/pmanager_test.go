package pmanager

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"blobseer/internal/placement"
	"blobseer/internal/rpc"
	"blobseer/internal/store"
	"blobseer/internal/wire"
)

func newState(n int) *State {
	s := NewState(placement.NewRoundRobin())
	for i := 0; i < n; i++ {
		s.Register(fmt.Sprintf("p%d", i), fmt.Sprintf("h%d", i))
	}
	return s
}

func TestAllocateRoundRobin(t *testing.T) {
	s := newState(4)
	targets, err := s.Allocate(8, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(targets.Addrs) != 8 {
		t.Fatalf("got %d targets", len(targets.Addrs))
	}
	layout := s.Layout()
	for i, c := range layout {
		if c != 2 {
			t.Errorf("provider %d has %d blocks, want 2", i, c)
		}
	}
}

func TestAllocateNoProviders(t *testing.T) {
	s := NewState(placement.NewRoundRobin())
	if _, err := s.Allocate(1, 1, ""); !errors.Is(err, placement.ErrNoProviders) {
		t.Errorf("err = %v", err)
	}
}

func TestMarkDeadExcludes(t *testing.T) {
	s := newState(3)
	s.MarkDead("p1")
	targets, err := s.Allocate(10, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range targets.Addrs {
		if addr == "p1" {
			t.Fatal("allocated on dead provider")
		}
	}
	// Re-register revives.
	s.Register("p1", "h1")
	infos := s.List()
	for _, in := range infos {
		if in.Addr == "p1" && !in.Alive {
			t.Error("re-registered provider still dead")
		}
	}
}

func TestExpireStale(t *testing.T) {
	s := newState(2)
	time.Sleep(5 * time.Millisecond)
	if n := s.ExpireStale(time.Millisecond); n != 2 {
		t.Errorf("expired %d, want 2", n)
	}
	s.Heartbeat("p0", store.Stats{})
	// p0 revived by heartbeat... heartbeat only refreshes alive nodes?
	// Heartbeat marks alive again.
	infos := s.List()
	var p0Alive bool
	for _, in := range infos {
		if in.Addr == "p0" {
			p0Alive = in.Alive
		}
	}
	if !p0Alive {
		t.Error("heartbeat did not revive provider")
	}
}

// TestHeartbeatStatsDriveListAndLayout pins the List/Layout drift fix:
// block counts reflect heartbeat-reported store contents, not the
// allocation-time estimates (which never see deletes or failed writes).
func TestHeartbeatStatsDriveListAndLayout(t *testing.T) {
	s := newState(3)
	// Allocation estimates say 4 blocks each.
	if _, err := s.Allocate(12, 1, ""); err != nil {
		t.Fatal(err)
	}
	// p1's heartbeat reports reality: only 1 block survived (e.g. a
	// failed write was garbage-collected).
	s.Heartbeat("p1", store.Stats{Items: 1, Bytes: 100})
	for _, in := range s.List() {
		want := int64(4) // estimate, no heartbeat yet
		if in.Addr == "p1" {
			want = 1
		}
		if in.Blocks != want {
			t.Errorf("%s: Blocks = %d, want %d", in.Addr, in.Blocks, want)
		}
	}
	layout := s.Layout()
	if layout[1] != 1 {
		t.Errorf("Layout[p1] = %d, want heartbeat-reported 1", layout[1])
	}
	if layout[0] != 4 || layout[2] != 4 {
		t.Errorf("Layout estimates clobbered: %v", layout)
	}
}

func TestDecommissionExcludesFromAllocateButStaysAlive(t *testing.T) {
	s := newState(3)
	s.Decommission("p1")
	targets, err := s.Allocate(9, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range targets.Addrs {
		if addr == "p1" {
			t.Fatal("allocated on draining provider")
		}
	}
	for _, in := range s.List() {
		if in.Addr == "p1" {
			if !in.Alive || !in.Draining {
				t.Errorf("draining provider state = %+v, want alive and draining", in)
			}
		}
	}
	// Heartbeats keep it alive but never clear the drain...
	s.Heartbeat("p1", store.Stats{})
	for _, in := range s.List() {
		if in.Addr == "p1" && !in.Draining {
			t.Error("heartbeat cleared the draining mark")
		}
	}
	// ...while an explicit re-registration does.
	s.Register("p1", "h1")
	for _, in := range s.List() {
		if in.Addr == "p1" && in.Draining {
			t.Error("re-registration kept the draining mark")
		}
	}
}

// TestExpiryLoopExcludesSilentProvider is the liveness regression: with
// the expiry ticker running, a provider that stops heartbeating is out
// of the allocation pool within one ticker period past its expiry age,
// while a heartbeating one stays in.
func TestExpiryLoopExcludesSilentProvider(t *testing.T) {
	const maxAge = 100 * time.Millisecond
	s := newState(2)
	svc := NewService(s)
	svc.StartExpiry(maxAge, maxAge/2)
	defer svc.StopExpiry()

	// p0 heartbeats synchronously inside the poll loop (a timer
	// goroutine racing the sweep on loaded CI runners would make the
	// liveness assertion flaky); p1 is silent. Within maxAge + one
	// ticker period the silent provider must be gone from allocations.
	deadline := time.Now().Add(maxAge + maxAge/2 + 2*time.Second)
	for {
		s.Heartbeat("p0", store.Stats{})
		targets, err := s.Allocate(4, 1, "")
		if err != nil {
			t.Fatal(err)
		}
		sawDead := false
		for _, addr := range targets.Addrs {
			if addr == "p1" {
				sawDead = true
			}
		}
		if !sawDead {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("silent provider still receiving allocations past expiry deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A heartbeat immediately before List pins p0 alive regardless of
	// how long the loop above took.
	s.Heartbeat("p0", store.Stats{})
	for _, in := range s.List() {
		switch in.Addr {
		case "p0":
			if !in.Alive {
				t.Error("heartbeating provider expired")
			}
		case "p1":
			if in.Alive {
				t.Error("silent provider still alive in List")
			}
		}
	}
}

// TestHeartbeatExpiryRace hammers heartbeats, expiry sweeps and
// listings concurrently; the -race CI step is the assertion.
func TestHeartbeatExpiryRace(t *testing.T) {
	s := newState(4)
	svc := NewService(s)
	svc.StartExpiry(time.Millisecond, time.Millisecond)
	defer svc.StopExpiry()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			addr := fmt.Sprintf("p%d", i)
			for j := 0; j < 200; j++ {
				s.Heartbeat(addr, store.Stats{Items: int64(j)})
				if j%10 == 0 {
					s.List()
					s.Layout()
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 100; j++ {
			if _, err := s.Allocate(1, 1, ""); err != nil {
				return // every provider momentarily expired; fine
			}
		}
	}()
	wg.Wait()
}

func TestServiceRPCRoundTrip(t *testing.T) {
	n := rpc.NewInprocNetwork()
	svc := NewService(newState(3))
	lis, err := n.Listen("pmanager")
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(svc.Mux())
	go srv.Serve(lis)
	defer srv.Close()
	pool := rpc.NewPool(n.Dial)
	defer pool.Close()
	c := NewClient(pool, "pmanager")
	ctx := context.Background()

	if err := c.Register(ctx, "p9", "h9"); err != nil {
		t.Fatal(err)
	}
	targets, err := c.Allocate(ctx, 4, 2, "h0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets.Addrs) != 8 || len(targets.Block(0)) != 2 {
		t.Fatalf("targets = %v", targets)
	}
	infos, err := c.List(ctx)
	if err != nil || len(infos) != 4 {
		t.Fatalf("List = %v, %v", infos, err)
	}
	known, err := c.Heartbeat(ctx, "p9", store.Stats{Items: 3, Bytes: 300})
	if err != nil || !known {
		t.Fatalf("Heartbeat of registered provider = known %v, %v", known, err)
	}
	// A heartbeat from a provider the manager does not know (it
	// restarted and lost membership) reports known=false so the
	// provider re-registers.
	if known, err := c.Heartbeat(ctx, "stranger", store.Stats{}); err != nil || known {
		t.Fatalf("Heartbeat of unknown provider = known %v, %v; want false", known, err)
	}
	infos, _ = c.List(ctx)
	for _, in := range infos {
		if in.Addr == "p9" && (in.Blocks != 3 || in.Bytes != 300) {
			t.Errorf("heartbeat stats not reflected in List: %+v", in)
		}
	}
	if err := c.MarkDead(ctx, "p9"); err != nil {
		t.Fatal(err)
	}
	infos, _ = c.List(ctx)
	for _, in := range infos {
		if in.Addr == "p9" && in.Alive {
			t.Error("MarkDead over RPC did not stick")
		}
	}
}

func TestServiceNoProvidersOverRPC(t *testing.T) {
	n := rpc.NewInprocNetwork()
	svc := NewService(NewState(placement.NewRoundRobin()))
	lis, _ := n.Listen("pm")
	srv := rpc.NewServer(svc.Mux())
	go srv.Serve(lis)
	defer srv.Close()
	pool := rpc.NewPool(n.Dial)
	defer pool.Close()
	c := NewClient(pool, "pm")
	if _, err := c.Allocate(context.Background(), 1, 1, "", nil); !errors.Is(err, placement.ErrNoProviders) {
		t.Errorf("err = %v, want ErrNoProviders", err)
	}
}

// TestAllocateBoundsWireCounts: the block and replica counts of an
// mAllocate come off the wire, so a 16-byte request may claim 2^32-1 of
// each. The manager refuses such a request before it sizes anything by
// the counts, and keeps serving; so does a replication beyond the live
// pool, and a block count whose placements would not fit one response.
func TestAllocateBoundsWireCounts(t *testing.T) {
	n := rpc.NewInprocNetwork()
	svc := NewService(newState(3))
	lis, err := n.Listen("pm")
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(svc.Mux())
	go srv.Serve(lis)
	defer srv.Close()
	pool := rpc.NewPool(n.Dial)
	defer pool.Close()
	ctx := context.Background()
	const huge = 1<<32 - 1
	for _, counts := range [][2]uint32{{huge, huge}, {1, huge}, {huge, 1}, {1, 4}} {
		err := pool.Call(ctx, rpc.Backoff{}, "pm", mAllocate, 16, func(b *wire.Buffer) {
			b.U32(counts[0])
			b.U32(counts[1])
			b.String("")
		}, nil)
		var re *rpc.RemoteError
		if !errors.As(err, &re) {
			t.Errorf("mAllocate of %d blocks of %d replicas = %v, want the manager's refusal", counts[0], counts[1], err)
		}
	}
	c := NewClient(pool, "pm")
	if targets, err := c.Allocate(ctx, 2, 3, "", nil); err != nil || len(targets.Addrs) != 6 {
		t.Fatalf("Allocate after the refusals = %v, %v", targets, err)
	}
}
