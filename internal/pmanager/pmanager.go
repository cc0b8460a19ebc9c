// Package pmanager implements BlobSeer's provider manager (Section
// III-B): it tracks the data providers that joined the system and
// schedules the placement of newly generated blocks through a
// configurable placement strategy — round-robin by default, which is
// the load-balancing behaviour the paper credits for BSFS's sustained
// throughput.
package pmanager

import (
	"context"
	"fmt"
	"sync"
	"time"

	"blobseer/internal/obs"
	"blobseer/internal/placement"
	"blobseer/internal/rpc"
	"blobseer/internal/store"
	"blobseer/internal/wire"
)

// RPC method numbers.
const (
	mRegister uint16 = iota + 1
	mAllocate
	mList
	mMarkDead
	mHeartbeat
	mDecommission
)

// State is the provider manager's pure core (no I/O): membership plus
// the placement strategy. Safe for concurrent use; allocation calls are
// serialized so stateful strategies (round-robin cursor, sticky
// windows) behave deterministically.
type State struct {
	mu       sync.Mutex
	nodes    []*placement.Node
	byAddr   map[string]*placement.Node
	lastSeen map[string]time.Time
	// reported holds the latest heartbeat-carried store statistics per
	// provider. Node.Blocks is an allocation-time estimate the placement
	// strategies maintain for their own balance decisions; listings and
	// layout metrics prefer the reported truth, which reflects deletes,
	// failed writes and repair copies the estimate never sees.
	reported map[string]store.Stats
	strategy placement.Strategy
	picks    []*placement.Node // the strategy's output vector, reused
}

// NewState returns a core using the given strategy.
func NewState(strategy placement.Strategy) *State {
	return &State{
		byAddr:   make(map[string]*placement.Node),
		lastSeen: make(map[string]time.Time),
		reported: make(map[string]store.Stats),
		strategy: strategy,
	}
}

// Register adds (or revives) a provider. Re-registering clears a
// draining mark: an operator re-adding a decommissioned node starts it
// fresh.
func (s *State) Register(addr, host string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, ok := s.byAddr[addr]; ok {
		n.Alive = true
		n.Draining = false
		n.Host = host
		s.lastSeen[addr] = time.Now()
		return
	}
	n := &placement.Node{Addr: addr, Host: host, Alive: true}
	s.nodes = append(s.nodes, n)
	s.byAddr[addr] = n
	s.lastSeen[addr] = time.Now()
}

// Heartbeat refreshes a provider's liveness and records the store
// statistics it carried. A draining provider stays draining — liveness
// and decommissioning are orthogonal. The return value reports whether
// the provider is known: false tells a heartbeating provider that the
// manager has no record of it (a restarted manager lost its
// membership) and it must Register again.
func (s *State) Heartbeat(addr string, stats store.Stats) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.byAddr[addr]
	if !ok {
		return false
	}
	n.Alive = true
	s.lastSeen[addr] = time.Now()
	s.reported[addr] = stats
	return true
}

// MarkDead removes a provider from allocation (failure injection,
// failed-write feedback, heartbeat expiry).
func (s *State) MarkDead(addr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, ok := s.byAddr[addr]; ok {
		n.Alive = false
	}
}

// Decommission marks a provider as draining: it leaves the allocation
// pool immediately but keeps serving reads and repair-source traffic
// until the repair plane has re-replicated its blocks elsewhere
// (drain-then-retire). Heartbeats do not clear the mark; Register does.
func (s *State) Decommission(addr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, ok := s.byAddr[addr]; ok {
		n.Draining = true
	}
}

// ExpireStale marks providers silent for longer than maxAge as dead
// and returns how many it expired.
func (s *State) ExpireStale(maxAge time.Duration) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	cutoff := time.Now().Add(-maxAge)
	n := 0
	for addr, at := range s.lastSeen {
		if at.Before(cutoff) && s.byAddr[addr].Alive {
			s.byAddr[addr].Alive = false
			n++
		}
	}
	return n
}

// Placement is where the blocks of one write go: block i's replica
// addresses, primary first, are Addrs[i*Replicas : (i+1)*Replicas].
type Placement struct {
	Addrs    []string
	Replicas int
}

// Block returns block i's replica addresses.
func (p Placement) Block(i int) []string {
	end := (i + 1) * p.Replicas
	return p.Addrs[i*p.Replicas : end : end]
}

// Allocate picks, for each of nBlocks blocks, `replicas` distinct
// provider addresses.
func (s *State) Allocate(nBlocks, replicas int, clientHost string) (Placement, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	picks, err := s.pickLocked(nBlocks, replicas, clientHost)
	if err != nil {
		return Placement{}, err
	}
	p := Placement{Addrs: make([]string, len(picks)), Replicas: replicas}
	for i, nd := range picks {
		p.Addrs[i] = nd.Addr
	}
	return p, nil
}

// encodeAllocation is Allocate straight into an mAllocate response: the
// picks go from the reused vector into b, a string slice per block.
func (s *State) encodeAllocation(b *wire.Buffer, nBlocks, replicas int, clientHost string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	picks, err := s.pickLocked(nBlocks, replicas, clientHost)
	if err != nil {
		return err
	}
	b.U32(uint32(nBlocks))
	for i, nd := range picks {
		if i%replicas == 0 {
			b.U32(uint32(replicas))
		}
		b.String(nd.Addr)
	}
	return nil
}

// maxKeptPicks bounds the pick vector State keeps between allocations.
const maxKeptPicks = 4096

// pickLocked runs the strategy into the reused pick vector, once the
// placements asked for are known to fit one response frame: the counts
// come off the wire, and nothing may be sized by them before that.
// Caller holds s.mu.
func (s *State) pickLocked(nBlocks, replicas int, clientHost string) ([]*placement.Node, error) {
	longest := 0
	for _, n := range s.nodes {
		longest = max(longest, len(n.Addr))
	}
	if !fitsFrame(nBlocks, replicas, longest) {
		return nil, fmt.Errorf("pmanager: %d blocks of %d replicas do not fit one response", nBlocks, replicas)
	}
	picks, err := s.strategy.Pick(s.picks[:0], nBlocks, replicas, clientHost, s.nodes)
	if cap(picks) <= maxKeptPicks {
		s.picks = picks[:0]
	}
	return picks, err
}

// fitsFrame reports whether nBlocks sets of replicas addresses, none of
// them longer than addrLen bytes, encode into one response frame.
func fitsFrame(nBlocks, replicas, addrLen int) bool {
	const room = wire.MaxFrameSize - 64 // the block count and the rpc headers
	if nBlocks < 0 || replicas < 0 || replicas > room {
		return false
	}
	return nBlocks <= room/(4+replicas*(4+addrLen))
}

// ProviderInfo is one row of the provider listing.
type ProviderInfo struct {
	Addr     string
	Host     string
	Blocks   int64 // heartbeat-reported item count (allocation estimate until the first heartbeat)
	Bytes    int64 // heartbeat-reported payload bytes (0 until the first heartbeat)
	Alive    bool
	Draining bool
}

// List returns a snapshot of the membership. Block/byte counts come
// from the latest heartbeat when one has been received, so they reflect
// deletes, failed writes and repair copies — not just allocations.
func (s *State) List() []ProviderInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ProviderInfo, len(s.nodes))
	for i, n := range s.nodes {
		info := ProviderInfo{Addr: n.Addr, Host: n.Host, Blocks: n.Blocks, Alive: n.Alive, Draining: n.Draining}
		if st, ok := s.reported[n.Addr]; ok {
			info.Blocks = st.Items
			info.Bytes = st.Bytes
		}
		out[i] = info
	}
	return out
}

// Membership counts the pool by state: live (alive, not draining),
// draining, and total registered.
func (s *State) Membership() (live, draining, total int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range s.nodes {
		switch {
		case n.Draining:
			draining++
		case n.Alive:
			live++
		}
	}
	return live, draining, len(s.nodes)
}

// MaxHeartbeatLag returns the longest silence among alive providers —
// the failure detector's leading indicator (it hits maxAge right
// before an expiry fires). Zero with no alive providers.
func (s *State) MaxHeartbeatLag() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	var max time.Duration
	for addr, at := range s.lastSeen {
		if n, ok := s.byAddr[addr]; ok && n.Alive {
			if lag := time.Since(at); lag > max {
				max = lag
			}
		}
	}
	return max
}

// Layout returns blocks-per-provider counts (Figure 3(b) metric),
// preferring heartbeat-reported reality over allocation estimates for
// providers that have reported.
func (s *State) Layout() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	counts := placement.Layout(s.nodes)
	for i, n := range s.nodes {
		if st, ok := s.reported[n.Addr]; ok {
			counts[i] = int(st.Items)
		}
	}
	return counts
}

// Service is the RPC shell around State, plus the liveness-expiry
// ticker that retires silent providers from the allocation pool.
type Service struct {
	state *State
	reg   *obs.Registry

	blocksAllocated   *obs.Counter // blocks placed by successful allocations
	heartbeatsUnknown *obs.Counter // heartbeats from providers not registered
	expired           *obs.Counter // providers the liveness loop retired

	expiryMu   sync.Mutex
	stopExpiry chan struct{}
}

// NewService wraps state.
func NewService(state *State) *Service {
	s := &Service{state: state, reg: obs.NewRegistry()}
	s.blocksAllocated = s.reg.Counter("blocks_allocated")
	s.heartbeatsUnknown = s.reg.Counter("heartbeats_unknown")
	s.expired = s.reg.Counter("expired")
	s.reg.GaugeFunc("providers_live", func() int64 {
		live, _, _ := state.Membership()
		return int64(live)
	})
	s.reg.GaugeFunc("providers_draining", func() int64 {
		_, draining, _ := state.Membership()
		return int64(draining)
	})
	s.reg.GaugeFunc("providers_total", func() int64 {
		_, _, total := state.Membership()
		return int64(total)
	})
	s.reg.GaugeFunc("heartbeat_lag_ms", func() int64 {
		return state.MaxHeartbeatLag().Milliseconds()
	})
	return s
}

// State exposes the core.
func (s *Service) State() *State { return s.state }

// Metrics exposes the manager's registry (per-method counts, errors and
// latency, membership gauges, heartbeat lag, blocks allocated) for HTTP
// export.
func (s *Service) Metrics() *obs.Registry { return s.reg }

// StartExpiry launches the liveness loop: every interval, providers
// silent for longer than maxAge are marked dead and leave the
// allocation pool. Stop with StopExpiry. This is what turns the
// Heartbeat/ExpireStale machinery into an actual failure detector —
// without it a crashed provider keeps receiving allocations forever.
func (s *Service) StartExpiry(maxAge, interval time.Duration) {
	s.expiryMu.Lock()
	defer s.expiryMu.Unlock()
	if s.stopExpiry != nil {
		return // already running
	}
	stop := make(chan struct{})
	s.stopExpiry = stop
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if n := s.state.ExpireStale(maxAge); n > 0 {
					s.expired.Add(int64(n))
				}
			}
		}
	}()
}

// StopExpiry terminates the liveness loop.
func (s *Service) StopExpiry() {
	s.expiryMu.Lock()
	defer s.expiryMu.Unlock()
	if s.stopExpiry != nil {
		close(s.stopExpiry)
		s.stopExpiry = nil
	}
}

// Mux returns the RPC dispatch table, metered on the manager's registry.
// Membership lives in memory, so every method waits on nothing and runs
// inline (rpc's dispatch rule).
func (s *Service) Mux() *rpc.Mux {
	m := rpc.NewMeteredMux("pmanager", s.reg)
	m.HandleInline(mRegister, "register", s.handleRegister)
	m.HandleInline(mAllocate, "allocate", s.handleAllocate)
	m.HandleInline(mList, "list", s.handleList)
	m.HandleInline(mMarkDead, "mark_dead", s.handleMarkDead)
	m.HandleInline(mHeartbeat, "heartbeat", s.handleHeartbeat)
	m.HandleInline(mDecommission, "decommission", s.handleDecommission)
	return m
}

func (s *Service) handleRegister(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	addr := r.String()
	host := r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	s.state.Register(addr, host)
	return nil, nil
}

func (s *Service) handleHeartbeat(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	addr := r.String()
	st := store.Stats{Items: r.I64(), Bytes: r.I64()}
	if err := r.Err(); err != nil {
		return nil, err
	}
	known := s.state.Heartbeat(addr, st)
	if !known {
		s.heartbeatsUnknown.Inc()
	}
	b := rpc.NewFrame(1)
	b.Bool(known)
	return b, nil
}

func (s *Service) handleMarkDead(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	addr := r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	s.state.MarkDead(addr)
	return nil, nil
}

func (s *Service) handleDecommission(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	addr := r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	s.state.Decommission(addr)
	return nil, nil
}

func (s *Service) handleAllocate(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	nBlocks := int(r.U32())
	replicas := int(r.U32())
	clientHost := r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	b := rpc.NewFrame(64)
	if err := s.state.encodeAllocation(b, nBlocks, replicas, clientHost); err != nil {
		b.Release()
		return nil, err
	}
	s.blocksAllocated.Add(int64(nBlocks))
	return b, nil
}

func (s *Service) handleList(ctx context.Context, p []byte) (*wire.Buffer, error) {
	infos := s.state.List()
	b := rpc.NewFrame(64)
	b.U32(uint32(len(infos)))
	for _, in := range infos {
		b.String(in.Addr)
		b.String(in.Host)
		b.I64(in.Blocks)
		b.I64(in.Bytes)
		b.Bool(in.Alive)
		b.Bool(in.Draining)
	}
	return b, nil
}

// Client is the provider-manager RPC client.
type Client struct {
	pool *rpc.Pool
	addr string

	mu    sync.Mutex
	addrs map[string]string // provider addresses seen in placements, interned
}

// maxInterned bounds Client.addrs: a deployment has far fewer providers,
// and one that churns through more starts the table afresh.
const maxInterned = 4096

// NewClient returns a client for the provider manager at addr. All
// provider-manager operations (Register, Heartbeat, Allocate, List)
// are idempotent or safely repeatable, so transport failures are
// retried with rpc.DefaultBackoff.
func NewClient(pool *rpc.Pool, addr string) *Client {
	return &Client{pool: pool, addr: addr, addrs: make(map[string]string)}
}

// call issues one RPC (see rpc.Pool.Call for enc and dec).
func (c *Client) call(ctx context.Context, m uint16, size int, enc func(*wire.Buffer), dec func([]byte) error) error {
	return c.pool.Call(ctx, rpc.DefaultBackoff, c.addr, m, size, enc, dec)
}

// Register announces a provider.
func (c *Client) Register(ctx context.Context, addr, host string) error {
	return c.call(ctx, mRegister, 16+len(addr)+len(host), func(b *wire.Buffer) {
		b.String(addr)
		b.String(host)
	}, nil)
}

// Heartbeat refreshes liveness, carrying the provider's live store
// statistics so the manager's listings track reality. known == false
// means the manager does not know this provider (it restarted and lost
// its membership): the caller must Register again.
func (c *Client) Heartbeat(ctx context.Context, addr string, stats store.Stats) (known bool, err error) {
	err = c.call(ctx, mHeartbeat, 64, func(b *wire.Buffer) {
		b.String(addr)
		b.I64(stats.Items)
		b.I64(stats.Bytes)
	}, func(p []byte) error {
		r := wire.NewReader(p)
		known = r.Bool()
		return r.Err()
	})
	return known, err
}

// Decommission marks a provider draining (out of the allocation pool,
// still a read/repair source).
func (c *Client) Decommission(ctx context.Context, addr string) error {
	return c.call(ctx, mDecommission, 8+len(addr), func(b *wire.Buffer) { b.String(addr) }, nil)
}

// MarkDead removes a provider from allocation.
func (c *Client) MarkDead(ctx context.Context, addr string) error {
	return c.call(ctx, mMarkDead, 8+len(addr), func(b *wire.Buffer) { b.String(addr) }, nil)
}

// Allocate requests placement targets for nBlocks blocks. The
// placement is decoded into into[:0], its addresses interned, so a
// caller that passes a vector of its own back call after call makes a
// call allocate nothing once it is long enough; a nil into gets one of
// the placement's size.
func (c *Client) Allocate(ctx context.Context, nBlocks, replicas int, clientHost string, into []string) (Placement, error) {
	var out Placement
	err := c.call(ctx, mAllocate, 16+len(clientHost), func(b *wire.Buffer) {
		b.U32(uint32(nBlocks))
		b.U32(uint32(replicas))
		b.String(clientHost)
	}, func(p []byte) error {
		r := wire.NewReader(p)
		if n := r.U32(); r.Err() != nil || int(n) != nBlocks || nBlocks*replicas > r.Remaining()/4 {
			return fmt.Errorf("pmanager: an allocation of %d blocks of %d replicas answered with %d", nBlocks, replicas, n)
		}
		out = Placement{Addrs: into[:0], Replicas: replicas}
		if cap(into) < nBlocks*replicas {
			out.Addrs = make([]string, 0, nBlocks*replicas)
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		for i := 0; i < nBlocks && r.Err() == nil; i++ {
			if k := r.U32(); int(k) != replicas {
				return fmt.Errorf("pmanager: block %d placed on %d replicas, want %d", i, k, replicas)
			}
			for j := 0; j < replicas; j++ {
				out.Addrs = append(out.Addrs, c.internLocked(r.Bytes32()))
			}
		}
		return r.Err()
	})
	if err != nil {
		return Placement{}, err
	}
	return out, nil
}

// internLocked returns the address b spells, as a string made the first
// time it was seen. Caller holds c.mu.
func (c *Client) internLocked(b []byte) string {
	if a, ok := c.addrs[string(b)]; ok {
		return a
	}
	if len(c.addrs) >= maxInterned {
		clear(c.addrs)
	}
	a := string(b)
	c.addrs[a] = a
	return a
}

// List fetches the membership snapshot.
func (c *Client) List(ctx context.Context) ([]ProviderInfo, error) {
	var out []ProviderInfo
	err := c.call(ctx, mList, 0, nil, func(p []byte) error {
		r := wire.NewReader(p)
		n := r.U32()
		out = make([]ProviderInfo, 0, min(n, uint32(r.Remaining())))
		for i := uint32(0); i < n && r.Err() == nil; i++ {
			out = append(out, ProviderInfo{
				Addr:     r.String(),
				Host:     r.String(),
				Blocks:   r.I64(),
				Bytes:    r.I64(),
				Alive:    r.Bool(),
				Draining: r.Bool(),
			})
		}
		return r.Err()
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
