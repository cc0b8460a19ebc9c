// Package placement implements the block placement strategies compared
// in the paper. The provider manager (BlobSeer), the namenode (the
// HDFS-like baseline) and the large-scale simulator all share these
// implementations, so the load-balancing behaviour measured in
// Figure 3(b) comes from the exact same code everywhere.
//
// Strategies are stateful (the round-robin cursor, the sticky window)
// and not safe for concurrent use; the owning manager serializes calls.
package placement

import (
	"fmt"

	"blobseer/internal/rpc"
	"blobseer/internal/util"
)

// Node describes one storage node as seen by an allocator.
type Node struct {
	Addr   string // RPC endpoint
	Host   string // physical host (for locality decisions)
	Blocks int64  // blocks currently stored (allocators update this)
	Alive  bool
	// Draining marks a node being decommissioned: it still serves reads
	// (and acts as a repair source) but receives no new blocks.
	Draining bool
}

// CodeNoProviders is ErrNoProviders' RPC status code.
const CodeNoProviders uint16 = 30

// ErrNoProviders is returned when no alive node can satisfy a request.
// The provider manager and the namenode answer with it, and their
// clients match it across the wire.
var ErrNoProviders = rpc.CodedError(CodeNoProviders, "placement: no alive providers")

// Strategy selects storage targets for new blocks.
type Strategy interface {
	// Pick appends to dst, block after block, `replicas` distinct nodes
	// for each of n blocks: block i's are the i-th run of `replicas`.
	// It fails before it appends anything when no alive node is left or
	// fewer than `replicas` are. Implementations update Node.Blocks for
	// the choices they make so consecutive calls observe their own load.
	// clientHost is the host of the writing client ("" if unknown / not
	// co-deployed).
	Pick(dst []*Node, n, replicas int, clientHost string, nodes []*Node) ([]*Node, error)
	Name() string
}

// livePool is a strategy's vector of the nodes that take new blocks,
// reused from one Pick to the next.
type livePool struct{ live []*Node }

// of returns the nodes that are alive and not draining, once it is known
// that they can hold `replicas` distinct copies of a block.
func (p *livePool) of(nodes []*Node, replicas int) ([]*Node, error) {
	p.live = p.live[:0]
	for _, nd := range nodes {
		if nd.Alive && !nd.Draining {
			p.live = append(p.live, nd)
		}
	}
	switch {
	case len(p.live) == 0:
		return nil, ErrNoProviders
	case replicas < 1:
		return nil, fmt.Errorf("placement: replication %d", replicas)
	case replicas > len(p.live):
		return nil, fmt.Errorf("placement: replication %d exceeds %d alive providers", replicas, len(p.live))
	}
	return p.live, nil
}

// spreadReplicas appends the primary and the replicas - 1 nodes
// following it in index order (wrapping), charging each for the block.
func spreadReplicas(dst []*Node, primaryIdx, replicas int, pool []*Node) []*Node {
	for r := 0; r < replicas; r++ {
		nd := pool[(primaryIdx+r)%len(pool)]
		nd.Blocks++
		dst = append(dst, nd)
	}
	return dst
}

// RoundRobin is BlobSeer's default strategy: blocks are dealt to
// providers in strict rotation, producing the near-ideal balance the
// paper credits for BSFS's sustained throughput (Section V-D).
type RoundRobin struct {
	livePool
	next int
}

// NewRoundRobin returns a fresh round-robin allocator.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Strategy.
func (s *RoundRobin) Name() string { return "roundrobin" }

// Pick implements Strategy.
func (s *RoundRobin) Pick(dst []*Node, n, replicas int, clientHost string, nodes []*Node) ([]*Node, error) {
	pool, err := s.of(nodes, replicas)
	if err != nil {
		return dst, err
	}
	for i := 0; i < n; i++ {
		dst = spreadReplicas(dst, s.next%len(pool), replicas, pool)
		s.next = (s.next + 1) % len(pool)
	}
	return dst, nil
}

// Random places each block on an independently uniform node.
type Random struct {
	livePool
	rng *util.SplitMix64
}

// NewRandom returns a seeded uniform-random allocator.
func NewRandom(seed uint64) *Random { return &Random{rng: util.NewSplitMix64(seed)} }

// Name implements Strategy.
func (s *Random) Name() string { return "random" }

// Pick implements Strategy.
func (s *Random) Pick(dst []*Node, n, replicas int, clientHost string, nodes []*Node) ([]*Node, error) {
	pool, err := s.of(nodes, replicas)
	if err != nil {
		return dst, err
	}
	for i := 0; i < n; i++ {
		dst = spreadReplicas(dst, s.rng.Intn(len(pool)), replicas, pool)
	}
	return dst, nil
}

// RandomSticky models the chunk clustering the paper measured for HDFS
// when a single remote client writes a large file (Figure 3(b)): the
// namenode picks a target and keeps re-using it for a window of
// consecutive blocks before switching. Window=1 degenerates to Random;
// larger windows reproduce larger measured unbalance.
type RandomSticky struct {
	livePool
	Window  int
	rng     *util.SplitMix64
	current int
	used    int
}

// NewRandomSticky returns a sticky allocator with the given window.
func NewRandomSticky(window int, seed uint64) *RandomSticky {
	if window < 1 {
		window = 1
	}
	return &RandomSticky{Window: window, rng: util.NewSplitMix64(seed), current: -1}
}

// Name implements Strategy.
func (s *RandomSticky) Name() string { return fmt.Sprintf("randomsticky(%d)", s.Window) }

// Pick implements Strategy.
func (s *RandomSticky) Pick(dst []*Node, n, replicas int, clientHost string, nodes []*Node) ([]*Node, error) {
	pool, err := s.of(nodes, replicas)
	if err != nil {
		return dst, err
	}
	for i := 0; i < n; i++ {
		if s.current < 0 || s.current >= len(pool) || s.used >= s.Window {
			s.current = s.rng.Intn(len(pool))
			s.used = 0
		}
		dst = spreadReplicas(dst, s.current, replicas, pool)
		s.used++
	}
	return dst, nil
}

// LocalFirst is the HDFS 0.20 default policy: if the writing client is
// co-deployed with a storage node, the first replica lands there;
// otherwise the Fallback strategy decides. This is why the paper's
// Section V-D deploys test clients on dedicated nodes — otherwise HDFS
// stores the whole file locally.
type LocalFirst struct {
	livePool
	Fallback Strategy
}

// NewLocalFirst wraps fallback with local-first behaviour.
func NewLocalFirst(fallback Strategy) *LocalFirst { return &LocalFirst{Fallback: fallback} }

// Name implements Strategy.
func (s *LocalFirst) Name() string { return "localfirst+" + s.Fallback.Name() }

// Pick implements Strategy.
func (s *LocalFirst) Pick(dst []*Node, n, replicas int, clientHost string, nodes []*Node) ([]*Node, error) {
	pool, err := s.of(nodes, replicas)
	if err != nil {
		return dst, err
	}
	localIdx := -1
	if clientHost != "" {
		for i, nd := range pool {
			if nd.Host == clientHost {
				localIdx = i
				break
			}
		}
	}
	if localIdx < 0 {
		return s.Fallback.Pick(dst, n, replicas, clientHost, nodes)
	}
	for i := 0; i < n; i++ {
		dst = spreadReplicas(dst, localIdx, replicas, pool)
	}
	return dst, nil
}

// LeastLoaded greedily picks the node currently storing the fewest
// blocks; with a single writer it behaves like round-robin, but it also
// absorbs heterogeneous starting loads.
type LeastLoaded struct{ livePool }

// NewLeastLoaded returns the greedy balancer.
func NewLeastLoaded() *LeastLoaded { return &LeastLoaded{} }

// Name implements Strategy.
func (s *LeastLoaded) Name() string { return "leastloaded" }

// Pick implements Strategy.
func (s *LeastLoaded) Pick(dst []*Node, n, replicas int, clientHost string, nodes []*Node) ([]*Node, error) {
	pool, err := s.of(nodes, replicas)
	if err != nil {
		return dst, err
	}
	for i := 0; i < n; i++ {
		best := 0
		for j, nd := range pool {
			if nd.Blocks < pool[best].Blocks {
				best = j
			}
		}
		dst = spreadReplicas(dst, best, replicas, pool)
	}
	return dst, nil
}

// Layout summarizes a placement as blocks-per-node counts keyed by the
// node order given, for the Figure 3(b) unbalance metric.
func Layout(nodes []*Node) []int {
	counts := make([]int, len(nodes))
	for i, nd := range nodes {
		counts[i] = int(nd.Blocks)
	}
	return counts
}
