package simmr

import (
	"testing"

	"blobseer/internal/placement"
	"blobseer/internal/sim"
	"blobseer/internal/simnet"
	"blobseer/internal/simstore"
	"blobseer/internal/util"
)

const blockSize = 64 * util.MB

// deploy builds a BSFS-backed Storage over `trackers` co-deployed
// nodes (IDs 10..10+n-1) on a fabric with two spare client nodes.
func deploy(t *testing.T, trackers int) (simstore.Storage, []simnet.NodeID) {
	t.Helper()
	env := sim.NewEnv()
	net := simnet.New(env, simnet.Grid5000(trackers+12))
	nodes := make([]simnet.NodeID, trackers)
	for i := range nodes {
		nodes[i] = simnet.NodeID(10 + i)
	}
	b := simstore.NewBSFS(net, simstore.DefaultTuning(), placement.NewRoundRobin(),
		0, []simnet.NodeID{1, 2}, nodes)
	return simstore.NewBSFSFiles(b, blockSize, 1), nodes
}

func TestRandomTextWriterCompletes(t *testing.T) {
	st, nodes := deploy(t, 8)
	cfg := DefaultConfig(nodes)
	done, err := RunRandomTextWriter(st, cfg, 4, 2*blockSize, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	if done <= cfg.JobOverhead {
		t.Fatalf("completion %v should exceed the %v job overhead", done, cfg.JobOverhead)
	}
	// Every mapper wrote its own file of the requested size.
	for _, name := range []string{"/out/part-m-00000", "/out/part-m-00003"} {
		if got := st.Size(name); got != 2*blockSize {
			t.Errorf("%s size = %d, want %d", name, got, 2*blockSize)
		}
	}
}

func TestRandomTextWriterMoreMappersFinishFaster(t *testing.T) {
	run := func(mappers int) sim.Time {
		st, nodes := deploy(t, 8)
		done, err := RunRandomTextWriter(st, DefaultConfig(nodes), mappers, 8*blockSize/int64(mappers), 100e6)
		if err != nil {
			t.Fatal(err)
		}
		return done
	}
	serial, parallel := run(1), run(8)
	if parallel >= serial {
		t.Errorf("8 mappers (%v) should beat 1 mapper (%v) for the same total output", parallel, serial)
	}
}

func TestRandomTextWriterSlowerGenerationSlowsJob(t *testing.T) {
	run := func(rate float64) sim.Time {
		st, nodes := deploy(t, 4)
		done, err := RunRandomTextWriter(st, DefaultConfig(nodes), 4, blockSize, rate)
		if err != nil {
			t.Fatal(err)
		}
		return done
	}
	fast, slow := run(200e6), run(20e6)
	if slow <= fast {
		t.Errorf("10x slower generation should lengthen the job: fast %v, slow %v", fast, slow)
	}
}

func TestGrepCompletesAndScalesWithInput(t *testing.T) {
	run := func(chunks int) sim.Time {
		st, nodes := deploy(t, 8)
		if err := st.CreateFile("/in"); err != nil {
			t.Fatal(err)
		}
		env := st.Env()
		env.Go(func(p *sim.Proc) {
			for i := 0; i < chunks; i++ {
				if err := st.AppendBlock(p, simnet.NodeID(3), "/in", blockSize); err != nil {
					t.Error(err)
					return
				}
			}
		})
		env.Run()
		done, err := RunGrep(st, DefaultConfig(nodes), "/in", 50e6)
		if err != nil {
			t.Fatal(err)
		}
		return done
	}
	small, large := run(4), run(32)
	if small <= 0 || large <= small {
		t.Errorf("grep time should grow with input: 4 chunks %v, 32 chunks %v", small, large)
	}
}

func TestGrepEmptyInputFails(t *testing.T) {
	st, nodes := deploy(t, 4)
	if err := st.CreateFile("/empty"); err != nil {
		t.Fatal(err)
	}
	if _, err := RunGrep(st, DefaultConfig(nodes), "/empty", 50e6); err == nil {
		t.Fatal("grep over an empty input should fail")
	}
}

// TestGrepJobTimeExcludesBootUp pins the measurement-phase rule: the
// job clock starts at submission, not at simulation time zero, so the
// input-writing boot-up phase must not count (the paper measures only
// the Map/Reduce job).
func TestGrepJobTimeExcludesBootUp(t *testing.T) {
	run := func(extraBoot bool) sim.Time {
		st, nodes := deploy(t, 8)
		if err := st.CreateFile("/in"); err != nil {
			t.Fatal(err)
		}
		env := st.Env()
		env.Go(func(p *sim.Proc) {
			if extraBoot {
				p.Sleep(500 * sim.Second) // arbitrary pre-job activity
			}
			for i := 0; i < 8; i++ {
				if err := st.AppendBlock(p, simnet.NodeID(3), "/in", blockSize); err != nil {
					t.Error(err)
					return
				}
			}
		})
		env.Run()
		done, err := RunGrep(st, DefaultConfig(nodes), "/in", 50e6)
		if err != nil {
			t.Fatal(err)
		}
		return done
	}
	base, delayed := run(false), run(true)
	if base != delayed {
		t.Errorf("job time must not depend on pre-job activity: %v vs %v", base, delayed)
	}
}

// TestGrepShuffleChargeScalesWithMaps pins the reduce-phase model.
func TestGrepShuffleChargeScalesWithMaps(t *testing.T) {
	run := func(shuffle sim.Time) sim.Time {
		st, nodes := deploy(t, 8)
		if err := st.CreateFile("/in"); err != nil {
			t.Fatal(err)
		}
		env := st.Env()
		env.Go(func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				if err := st.AppendBlock(p, simnet.NodeID(3), "/in", blockSize); err != nil {
					t.Error(err)
				}
			}
		})
		env.Run()
		cfg := DefaultConfig(nodes)
		cfg.ShufflePerMap = shuffle
		done, err := RunGrep(st, cfg, "/in", 50e6)
		if err != nil {
			t.Fatal(err)
		}
		return done
	}
	without, with := run(0), run(sim.Second)
	if diff := with - without; diff != 10*sim.Second {
		t.Errorf("10 maps at 1s shuffle each should add exactly 10s, added %v", diff)
	}
}

// TestGrepPrefersLocalMaps verifies the locality scheduling: with one
// chunk per tracker node, every map can and should run node-local, so
// the whole map phase costs no network transfer and finishes near the
// scan-rate bound.
func TestGrepPrefersLocalMaps(t *testing.T) {
	st, nodes := deploy(t, 8)
	if err := st.CreateFile("/in"); err != nil {
		t.Fatal(err)
	}
	env := st.Env()
	env.Go(func(p *sim.Proc) {
		for i := 0; i < 8; i++ { // round-robin: one chunk per tracker
			if err := st.AppendBlock(p, simnet.NodeID(3), "/in", blockSize); err != nil {
				t.Error(err)
			}
		}
	})
	env.Run()
	cfg := DefaultConfig(nodes)
	cfg.ShufflePerMap = 0
	done, err := RunGrep(st, cfg, "/in", 50e6)
	if err != nil {
		t.Fatal(err)
	}
	// All 8 maps run in one wave, all local (disk-bound read at 85MB/s
	// + scan at 50MB/s), plus heartbeat and overhead.
	scan := float64(blockSize) / 50e6
	read := float64(blockSize) / 85e6
	bound := sim.DurationFromSeconds(scan+read) + 2*cfg.Heartbeat + cfg.JobOverhead
	if done > bound+sim.Second {
		t.Errorf("all-local grep took %v, want <= %v (no network transfers)", done, bound)
	}
}
