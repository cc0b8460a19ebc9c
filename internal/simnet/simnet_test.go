package simnet

import (
	"fmt"
	"math"
	"testing"

	"blobseer/internal/sim"
)

// cfg: 100 MB/s links, zero latency for exact arithmetic.
func testCfg(nodes int) Config {
	return Config{Nodes: nodes, UpBps: 100e6, DownBps: 100e6, Latency: 0}
}

func TestSingleFlowLinkLimited(t *testing.T) {
	env := sim.NewEnv()
	net := New(env, testCfg(2))
	var done sim.Time
	env.Go(func(p *sim.Proc) {
		net.Transfer(p, 0, 1, 100e6, 0) // 100 MB over a 100 MB/s link
		done = p.Now()
	})
	env.Run()
	if got := done.Seconds(); math.Abs(got-1.0) > 1e-6 {
		t.Errorf("transfer took %.6fs, want 1.0s", got)
	}
}

func TestPerFlowRateCap(t *testing.T) {
	env := sim.NewEnv()
	net := New(env, testCfg(2))
	var done sim.Time
	env.Go(func(p *sim.Proc) {
		net.Transfer(p, 0, 1, 100e6, 50e6) // capped at half the link
		done = p.Now()
	})
	env.Run()
	if got := done.Seconds(); math.Abs(got-2.0) > 1e-6 {
		t.Errorf("capped transfer took %.6fs, want 2.0s", got)
	}
}

func TestFairSharingOnSharedUplink(t *testing.T) {
	// Two flows from node 0 to distinct destinations share 0's uplink:
	// each gets 50 MB/s, so 50 MB each takes 1s.
	env := sim.NewEnv()
	net := New(env, testCfg(3))
	var d1, d2 sim.Time
	env.Go(func(p *sim.Proc) {
		net.Transfer(p, 0, 1, 50e6, 0)
		d1 = p.Now()
	})
	env.Go(func(p *sim.Proc) {
		net.Transfer(p, 0, 2, 50e6, 0)
		d2 = p.Now()
	})
	env.Run()
	if math.Abs(d1.Seconds()-1.0) > 1e-6 || math.Abs(d2.Seconds()-1.0) > 1e-6 {
		t.Errorf("shared uplink: %.6fs / %.6fs, want 1.0/1.0", d1.Seconds(), d2.Seconds())
	}
}

func TestRateReallocationAfterCompletion(t *testing.T) {
	// Flow A: 50 MB, flow B: 100 MB, same uplink. Phase 1 (1s): both at
	// 50 MB/s; A finishes having moved 50 MB, B has 50 MB left. Phase 2:
	// B alone at 100 MB/s -> 0.5s more. B completes at 1.5s.
	env := sim.NewEnv()
	net := New(env, testCfg(3))
	var dA, dB sim.Time
	env.Go(func(p *sim.Proc) {
		net.Transfer(p, 0, 1, 50e6, 0)
		dA = p.Now()
	})
	env.Go(func(p *sim.Proc) {
		net.Transfer(p, 0, 2, 100e6, 0)
		dB = p.Now()
	})
	env.Run()
	if math.Abs(dA.Seconds()-1.0) > 1e-6 {
		t.Errorf("A finished at %.6fs, want 1.0", dA.Seconds())
	}
	if math.Abs(dB.Seconds()-1.5) > 1e-6 {
		t.Errorf("B finished at %.6fs, want 1.5", dB.Seconds())
	}
}

func TestDownlinkBottleneck(t *testing.T) {
	// Two senders into one receiver: receiver downlink shared.
	env := sim.NewEnv()
	net := New(env, testCfg(3))
	var d1, d2 sim.Time
	env.Go(func(p *sim.Proc) {
		net.Transfer(p, 0, 2, 50e6, 0)
		d1 = p.Now()
	})
	env.Go(func(p *sim.Proc) {
		net.Transfer(p, 1, 2, 50e6, 0)
		d2 = p.Now()
	})
	env.Run()
	if math.Abs(d1.Seconds()-1.0) > 1e-6 || math.Abs(d2.Seconds()-1.0) > 1e-6 {
		t.Errorf("downlink sharing: %.6f/%.6f", d1.Seconds(), d2.Seconds())
	}
}

func TestMaxMinUnevenShares(t *testing.T) {
	// Node 0 sends to 1 and 2; node 3 also sends to 2. Node 2's
	// downlink carries two flows (50 each); flow 0->1 then picks up
	// the leftover of 0's uplink (50). All equal here; now cap flow
	// 0->2 at 20: flow 0->1 should get 80 (uplink leftover), flow 3->2
	// should get 80 (downlink leftover).
	env := sim.NewEnv()
	net := New(env, testCfg(4))
	rate := func(bytes float64, at sim.Time) float64 { return bytes / at.Seconds() }
	var t01, t02, t32 sim.Time
	env.Go(func(p *sim.Proc) { net.Transfer(p, 0, 1, 80e6, 0); t01 = p.Now() })
	env.Go(func(p *sim.Proc) { net.Transfer(p, 0, 2, 20e6, 20e6); t02 = p.Now() })
	env.Go(func(p *sim.Proc) { net.Transfer(p, 3, 2, 80e6, 0); t32 = p.Now() })
	env.Run()
	// All three should finish at 1s exactly under max-min.
	for name, at := range map[string]sim.Time{"0->1": t01, "0->2": t02, "3->2": t32} {
		if math.Abs(at.Seconds()-1.0) > 1e-6 {
			t.Errorf("flow %s finished at %.6f, want 1.0", name, at.Seconds())
		}
	}
	_ = rate
}

func TestConservationProperty(t *testing.T) {
	// Total bytes moved equals total bytes requested, whatever the
	// contention pattern.
	env := sim.NewEnv()
	net := New(env, testCfg(6))
	total := 0.0
	sizes := []int64{10e6, 25e6, 40e6, 5e6, 60e6, 33e6, 21e6}
	for i, s := range sizes {
		i, s := i, s
		total += float64(s)
		env.Go(func(p *sim.Proc) {
			p.Sleep(sim.Time(i) * 100 * sim.Millisecond) // staggered starts
			net.Transfer(p, NodeID(i%3), NodeID(3+i%3), s, 0)
		})
	}
	env.Run()
	if math.Abs(net.BytesMoved-total) > 1 {
		t.Errorf("moved %.0f bytes, want %.0f", net.BytesMoved, total)
	}
	if net.ActiveFlows() != 0 {
		t.Errorf("%d flows leaked", net.ActiveFlows())
	}
}

func TestLatencyCharged(t *testing.T) {
	env := sim.NewEnv()
	cfg := testCfg(2)
	cfg.Latency = 100 * sim.Microsecond
	net := New(env, cfg)
	var done sim.Time
	env.Go(func(p *sim.Proc) {
		net.Message(p, 0, 1, 0) // pure RTT
		done = p.Now()
	})
	env.Run()
	if done != 200*sim.Microsecond {
		t.Errorf("message RTT = %v, want 200µs", done)
	}
}

func TestLocalTransferFree(t *testing.T) {
	env := sim.NewEnv()
	net := New(env, testCfg(2))
	var done sim.Time
	env.Go(func(p *sim.Proc) {
		net.Transfer(p, 1, 1, 1e9, 0)
		net.Message(p, 1, 1, 100)
		done = p.Now()
	})
	env.Run()
	if done != 0 {
		t.Errorf("local transfer cost %v", done)
	}
}

func TestGrid5000Parameters(t *testing.T) {
	cfg := Grid5000(270)
	if cfg.Nodes != 270 || cfg.Latency != 100*sim.Microsecond {
		t.Errorf("cfg = %+v", cfg)
	}
	if math.Abs(cfg.UpBps-117.5e6) > 1 {
		t.Errorf("link speed = %v", cfg.UpBps)
	}
}

func TestManyConcurrentFlowsAggregate(t *testing.T) {
	// N disjoint pairs: aggregate bandwidth scales with N (the Figure 5
	// phenomenon in its purest form).
	env := sim.NewEnv()
	const N = 50
	net := New(env, testCfg(2*N))
	for i := 0; i < N; i++ {
		i := i
		env.Go(func(p *sim.Proc) {
			net.Transfer(p, NodeID(i), NodeID(N+i), 100e6, 0)
		})
	}
	end := env.Run()
	// Each pair independent: all finish in 1s.
	if math.Abs(end.Seconds()-1.0) > 1e-6 {
		t.Errorf("end = %.6fs, want 1.0 (no false contention)", end.Seconds())
	}
}

func TestPerNodeEgressIngressAccounting(t *testing.T) {
	// A relay chain 0 -> 1 -> 2: node 1 is charged both directions,
	// the endpoints one each, local flows neither.
	env := sim.NewEnv()
	net := New(env, Config{Nodes: 3, UpBps: 100e6, DownBps: 100e6, DiskBps: 100e6, Latency: 0})
	env.Go(func(p *sim.Proc) {
		net.Transfer(p, 0, 1, 60e6, 0)
		net.Transfer(p, 1, 2, 60e6, 0)
		net.TransferDisk(p, 2, 2, 40e6, 0, 2) // local: disk only, no link bytes
	})
	env.Run()
	cases := []struct {
		node         NodeID
		egress, ingr float64
	}{{0, 60e6, 0}, {1, 60e6, 60e6}, {2, 0, 60e6}}
	for _, c := range cases {
		if got := net.EgressOf(c.node); math.Abs(got-c.egress) > 1 {
			t.Errorf("node %d egress = %.0f, want %.0f", c.node, got, c.egress)
		}
		if got := net.IngressOf(c.node); math.Abs(got-c.ingr) > 1 {
			t.Errorf("node %d ingress = %.0f, want %.0f", c.node, got, c.ingr)
		}
	}
}

func TestRunsAreReproducible(t *testing.T) {
	// Flows that finish at the same instant must complete, and hand the
	// fabric back to their processes, in the same order on every run:
	// each process's next transfer depends on how many finished before
	// it, so any reordering shows in the finishing times.
	run := func() string {
		env := sim.NewEnv()
		net := New(env, testCfg(8))
		var log []string
		for i := 0; i < 12; i++ {
			i := i
			env.Go(func(p *sim.Proc) {
				net.Transfer(p, NodeID(i%4), NodeID(4+i%3), 30e6, 0)
				log = append(log, fmt.Sprintf("%d@%d", i, p.Now()))
				net.Transfer(p, NodeID(4+i%4), NodeID(i%3), int64(len(log))*1e6, 0)
				log = append(log, fmt.Sprintf("%d@%d", i, p.Now()))
			})
		}
		env.Run()
		return fmt.Sprint(log, net.BytesMoved)
	}
	want := run()
	for i := 0; i < 10; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d differs:\n%s\nfirst run:\n%s", i+1, got, want)
		}
	}
}
