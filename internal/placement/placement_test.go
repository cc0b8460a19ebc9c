package placement

import (
	"testing"

	"blobseer/internal/util"
)

func mkNodes(n int) []*Node {
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = &Node{
			Addr:  "provider-" + string(rune('a'+i)),
			Host:  "host-" + string(rune('a'+i)),
			Alive: true,
		}
	}
	return nodes
}

func TestRoundRobinBalance(t *testing.T) {
	nodes := mkNodes(5)
	s := NewRoundRobin()
	targets, err := s.Pick(nil, 100, 1, "", nodes)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 100 {
		t.Fatalf("got %d target sets", len(targets))
	}
	for _, nd := range nodes {
		if nd.Blocks != 20 {
			t.Errorf("node %s has %d blocks, want 20", nd.Addr, nd.Blocks)
		}
	}
	if d := util.ManhattanDistance(Layout(nodes)); d != 0 {
		t.Errorf("round robin unbalance = %v, want 0", d)
	}
}

func TestRoundRobinCursorPersistsAcrossCalls(t *testing.T) {
	nodes := mkNodes(4)
	s := NewRoundRobin()
	for i := 0; i < 6; i++ {
		if _, err := s.Pick(nil, 1, 1, "", nodes); err != nil {
			t.Fatal(err)
		}
	}
	// 6 blocks over 4 nodes: first two nodes have 2, rest 1.
	if nodes[0].Blocks != 2 || nodes[1].Blocks != 2 || nodes[2].Blocks != 1 || nodes[3].Blocks != 1 {
		t.Errorf("layout = %v", Layout(nodes))
	}
}

func TestRoundRobinSkipsDeadNodes(t *testing.T) {
	nodes := mkNodes(3)
	nodes[1].Alive = false
	s := NewRoundRobin()
	targets, err := s.Pick(nil, 10, 1, "", nodes)
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range targets {
		if nd == nodes[1] {
			t.Fatal("placed block on dead node")
		}
	}
	if nodes[1].Blocks != 0 {
		t.Error("dead node charged")
	}
}

func TestReplicationDistinctTargets(t *testing.T) {
	nodes := mkNodes(5)
	s := NewRoundRobin()
	targets, err := s.Pick(nil, 20, 3, "", nodes)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 60 {
		t.Fatalf("%d targets for 20 blocks of 3 replicas", len(targets))
	}
	for i := 0; i < len(targets); i += 3 {
		set := targets[i : i+3]
		seen := map[*Node]bool{}
		for _, nd := range set {
			if seen[nd] {
				t.Fatal("duplicate replica target")
			}
			seen[nd] = true
		}
	}
	total := int64(0)
	for _, nd := range nodes {
		total += nd.Blocks
	}
	if total != 60 {
		t.Errorf("total stored = %d, want 60", total)
	}
}

func TestReplicationExceedsProviders(t *testing.T) {
	nodes := mkNodes(2)
	s := NewRoundRobin()
	if _, err := s.Pick(nil, 1, 3, "", nodes); err == nil {
		t.Fatal("over-replication accepted")
	}
}

// TestPickRefusesBeforeAllocating: a request no live pool can hold fails
// before a vector the size of it is made, whatever its block count, and a
// warm Pick into a reused vector allocates nothing.
func TestPickRefusesBeforeAllocating(t *testing.T) {
	nodes := mkNodes(3)
	for _, s := range []Strategy{NewRoundRobin(), NewRandom(1), NewRandomSticky(4, 1), NewLeastLoaded(), NewLocalFirst(NewRandom(1))} {
		for _, replicas := range []int{0, 4, 1<<32 - 1} {
			got, err := s.Pick(nil, 1<<32-1, replicas, "host-a", nodes)
			if err == nil || got != nil {
				t.Errorf("%s: %d replicas on 3 nodes = %d targets, %v; want an error and none", s.Name(), replicas, len(got), err)
			}
		}
		dst, _ := s.Pick(nil, 2, 2, "host-a", nodes)
		if allocs := testing.AllocsPerRun(100, func() { dst, _ = s.Pick(dst[:0], 2, 2, "host-a", nodes) }); allocs != 0 {
			t.Errorf("%s: a warm Pick allocates %.1f times", s.Name(), allocs)
		}
	}
}

func TestNoAliveProviders(t *testing.T) {
	nodes := mkNodes(2)
	nodes[0].Alive = false
	nodes[1].Alive = false
	for _, s := range []Strategy{NewRoundRobin(), NewRandom(1), NewRandomSticky(4, 1), NewLeastLoaded(), NewLocalFirst(NewRandom(1))} {
		if _, err := s.Pick(nil, 1, 1, "", nodes); err != ErrNoProviders {
			t.Errorf("%s: err = %v, want ErrNoProviders", s.Name(), err)
		}
	}
}

func TestRandomCoversNodes(t *testing.T) {
	nodes := mkNodes(8)
	s := NewRandom(42)
	if _, err := s.Pick(nil, 400, 1, "", nodes); err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		if nd.Blocks == 0 {
			t.Errorf("node %s never chosen in 400 picks", nd.Addr)
		}
	}
}

func TestRandomStickyClustersMoreThanRandom(t *testing.T) {
	// The calibrated HDFS model: a sticky window must produce strictly
	// more unbalance than pure random placement, which in turn is more
	// unbalanced than round robin. This ordering is the essence of
	// Figure 3(b).
	const blocks = 246 // the paper's 16 GB file
	const N = 50

	run := func(s Strategy) float64 {
		nodes := mkNodes(N)
		if _, err := s.Pick(nil, blocks, 1, "", nodes); err != nil {
			t.Fatal(err)
		}
		return util.ManhattanDistance(Layout(nodes))
	}
	rr := run(NewRoundRobin())
	rnd := run(NewRandom(7))
	sticky := run(NewRandomSticky(8, 7))
	if !(rr <= rnd && rnd < sticky) {
		t.Errorf("unbalance ordering violated: rr=%v random=%v sticky=%v", rr, rnd, sticky)
	}
}

func TestRandomStickyWindow(t *testing.T) {
	nodes := mkNodes(10)
	s := NewRandomSticky(5, 3)
	targets, err := s.Pick(nil, 5, 1, "", nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(targets); i++ {
		if targets[i] != targets[0] {
			t.Fatal("sticky window switched nodes early")
		}
	}
}

func TestLocalFirstUsesLocalNode(t *testing.T) {
	nodes := mkNodes(4)
	s := NewLocalFirst(NewRandom(1))
	targets, err := s.Pick(nil, 10, 1, "host-c", nodes)
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range targets {
		if nd.Host != "host-c" {
			t.Fatalf("block placed on %s, want host-c", nd.Host)
		}
	}
}

func TestLocalFirstFallsBackForRemoteClient(t *testing.T) {
	nodes := mkNodes(4)
	s := NewLocalFirst(NewRoundRobin())
	if _, err := s.Pick(nil, 8, 1, "not-a-storage-host", nodes); err != nil {
		t.Fatal(err)
	}
	if d := util.ManhattanDistance(Layout(nodes)); d != 0 {
		t.Errorf("fallback round robin unbalance = %v", d)
	}
}

func TestLeastLoadedAbsorbsSkew(t *testing.T) {
	nodes := mkNodes(3)
	nodes[0].Blocks = 10 // pre-existing load
	s := NewLeastLoaded()
	if _, err := s.Pick(nil, 20, 1, "", nodes); err != nil {
		t.Fatal(err)
	}
	// All 20 blocks should go to the two empty nodes.
	if nodes[0].Blocks != 10 {
		t.Errorf("loaded node received blocks: %d", nodes[0].Blocks)
	}
	if nodes[1].Blocks != 10 || nodes[2].Blocks != 10 {
		t.Errorf("layout = %v", Layout(nodes))
	}
}

func TestStrategyNames(t *testing.T) {
	if NewRoundRobin().Name() != "roundrobin" {
		t.Error("roundrobin name")
	}
	if NewRandomSticky(8, 0).Name() != "randomsticky(8)" {
		t.Error("sticky name")
	}
	if NewLocalFirst(NewRandom(0)).Name() != "localfirst+random" {
		t.Error("localfirst name")
	}
}
