package simnet

import (
	"math"
	"testing"

	"blobseer/internal/sim"
)

func diskFabric(nodes int, upBps, diskBps float64) (*sim.Env, *Net) {
	env := sim.NewEnv()
	n := New(env, Config{
		Nodes:   nodes,
		UpBps:   upBps,
		DownBps: upBps,
		DiskBps: diskBps,
		Latency: 0,
	})
	return env, n
}

// TestLocalDiskFlow: a src==dst transfer with a disk runs at the disk
// rate (or the flow cap if lower); without a disk it is free.
func TestLocalDiskFlow(t *testing.T) {
	env, n := diskFabric(2, 100, 40)
	var took sim.Time
	env.Go(func(p *sim.Proc) {
		start := p.Now()
		n.TransferDisk(p, 0, 0, 400, 0, 0)
		took = p.Now() - start
	})
	env.Run()
	if got, want := took.Seconds(), 10.0; math.Abs(got-want) > 0.01 {
		t.Errorf("local disk flow took %.2fs, want %.2fs (400 B at 40 B/s)", got, want)
	}

	env2, n2 := diskFabric(2, 100, 40)
	var took2 sim.Time
	env2.Go(func(p *sim.Proc) {
		start := p.Now()
		n2.Transfer(p, 0, 0, 400, 0) // no disk: page-cache local access
		took2 = p.Now() - start
	})
	env2.Run()
	if took2 != 0 {
		t.Errorf("diskless local transfer took %v, want 0", took2)
	}
}

// TestDiskSharedAcrossReadAndWrite: a remote read served by node 1 and
// a remote write landing on node 1 share node 1's disk even though
// they use different link directions.
func TestDiskSharedAcrossReadAndWrite(t *testing.T) {
	env, n := diskFabric(3, 1000, 100)
	times := make([]sim.Time, 2)
	env.Go(func(p *sim.Proc) { // read: 1 -> 0, disk at 1
		start := p.Now()
		n.TransferDisk(p, 1, 0, 500, 0, 1)
		times[0] = p.Now() - start
	})
	env.Go(func(p *sim.Proc) { // write: 2 -> 1, disk at 1
		start := p.Now()
		n.TransferDisk(p, 2, 1, 500, 0, 1)
		times[1] = p.Now() - start
	})
	env.Run()
	// Disk 100 B/s shared two ways -> 50 B/s each -> 10 s. Links (1000)
	// never bind.
	for i, took := range times {
		if got := took.Seconds(); math.Abs(got-10) > 0.1 {
			t.Errorf("flow %d took %.2fs, want ~10s (disk shared)", i, got)
		}
	}
}

// TestDiskReleasedAfterCompletion: when a short flow finishes, the
// survivor speeds up to the full disk rate (progressive refill).
func TestDiskReleasedAfterCompletion(t *testing.T) {
	env, n := diskFabric(3, 1000, 100)
	var longTook sim.Time
	env.Go(func(p *sim.Proc) { // short: 250 B
		n.TransferDisk(p, 1, 0, 250, 0, 1)
	})
	env.Go(func(p *sim.Proc) { // long: 750 B
		start := p.Now()
		n.TransferDisk(p, 1, 2, 750, 0, 1)
		longTook = p.Now() - start
	})
	env.Run()
	// Both run at 50 B/s until the short one finishes at t=5 (250 B);
	// the long one then has 500 B left at 100 B/s -> 5 more seconds.
	if got := longTook.Seconds(); math.Abs(got-10) > 0.1 {
		t.Errorf("long flow took %.2fs, want ~10s (5 shared + 5 alone)", got)
	}
}

// TestDiskZeroMeansUnmodeled: DiskBps == 0 disables the constraint
// entirely, reproducing the pure link-sharing model.
func TestDiskZeroMeansUnmodeled(t *testing.T) {
	env, n := diskFabric(2, 100, 0)
	var took sim.Time
	env.Go(func(p *sim.Proc) {
		start := p.Now()
		n.TransferDisk(p, 0, 1, 1000, 0, 1)
		took = p.Now() - start
	})
	env.Run()
	if got := took.Seconds(); math.Abs(got-10) > 0.1 {
		t.Errorf("link-limited flow took %.2fs, want 10s", got)
	}
}

// TestConservationWithDisks: under an arbitrary mix of flows, no node's
// uplink, downlink or disk is ever over-committed by the computed
// rates.
func TestConservationWithDisks(t *testing.T) {
	env, n := diskFabric(6, 117, 85)
	specs := []struct {
		src, dst, disk NodeID
		size           int64
	}{
		{0, 1, 1, 900}, {0, 2, 2, 500}, {3, 1, 1, 700},
		{4, 1, 1, 400}, {5, 2, 2, 800}, {2, 0, 2, 600},
		{1, 1, 1, 300}, {3, 3, 3, 1000},
	}
	for _, s := range specs {
		s := s
		env.Go(func(p *sim.Proc) { n.TransferDisk(p, s.src, s.dst, s.size, 60, s.disk) })
	}
	// Audit rates at a few instants mid-simulation.
	for _, at := range []sim.Time{sim.Second, 3 * sim.Second, 6 * sim.Second} {
		at := at
		env.Call(at-env.Now(), func() {})
	}
	check := func() {
		up := make([]float64, 6)
		down := make([]float64, 6)
		disk := make([]float64, 6)
		for _, f := range n.flows {
			if !f.local {
				up[f.src] += f.rate
				down[f.dst] += f.rate
			}
			if f.disk >= 0 {
				disk[f.disk] += f.rate
			}
			if f.rate > 60+1e-6 {
				t.Errorf("flow rate %.1f exceeds its 60 B/s cap", f.rate)
			}
		}
		for i := 0; i < 6; i++ {
			if up[i] > 117+1e-6 || down[i] > 117+1e-6 {
				t.Errorf("node %d link over-committed: up %.1f down %.1f", i, up[i], down[i])
			}
			if disk[i] > 85+1e-6 {
				t.Errorf("node %d disk over-committed: %.1f", i, disk[i])
			}
		}
	}
	env.Go(func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			p.Sleep(sim.Second)
			check()
		}
	})
	env.Run()
}
