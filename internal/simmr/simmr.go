// Package simmr models Hadoop job execution at the paper's scale for
// the Figure 6 experiments: tasktrackers co-deployed with storage
// nodes, slot-limited task execution, pull-based scheduling with
// node-local preference and remote stealing, and a fixed per-job
// framework overhead. Storage traffic goes through simstore, so the
// BSFS/HDFS difference seen in job completion times comes from the
// same placement and protocol models as the microbenchmarks.
package simmr

import (
	"fmt"

	"blobseer/internal/sim"
	"blobseer/internal/simnet"
	"blobseer/internal/simstore"
)

// Config describes the Map/Reduce deployment and framework costs.
type Config struct {
	Trackers    []simnet.NodeID
	MapSlots    int      // per tracker (2 in Hadoop 0.20's default)
	Heartbeat   sim.Time // tracker poll interval (task dispatch latency)
	JobOverhead sim.Time // job setup/teardown (JVM spawn, init, commit)
	// ShufflePerMap is the reduce-side cost of fetching and merging one
	// map task's output: the reduce phase scales with the number of
	// maps, which is why the paper's grep completion time grows with
	// input size even though all maps run in a single wave.
	ShufflePerMap sim.Time
}

// DefaultConfig returns Hadoop-0.20-flavoured framework constants.
func DefaultConfig(trackers []simnet.NodeID) Config {
	return Config{
		Trackers:      trackers,
		MapSlots:      2,
		Heartbeat:     500 * sim.Millisecond,
		JobOverhead:   12 * sim.Second,
		ShufflePerMap: 25 * sim.Millisecond,
	}
}

// streamBlocks writes `total` bytes of `name` block by block from node
// tn, generating text at genRate. The client is synchronous, as in the
// paper's runs: it generates a block, then stalls through its full
// commit.
func streamBlocks(p *sim.Proc, st simstore.Storage, tn simnet.NodeID, name string, total int64, genRate float64) error {
	bs := st.BlockSize()
	for written := int64(0); written < total; {
		n := min(bs, total-written)
		p.Sleep(sim.DurationFromSeconds(float64(n) / genRate))
		if err := st.AppendBlock(p, tn, name, n); err != nil {
			return err
		}
		written += n
	}
	return nil
}

// RunRandomTextWriter simulates the paper's first application
// (Section V-G): `mappers` map-only tasks, each generating
// bytesPerMapper of text at genRate (bytes/sec of CPU work) and writing
// it block-by-block to its own output file. It returns the job
// completion time.
func RunRandomTextWriter(st simstore.Storage, cfg Config, mappers int, bytesPerMapper int64, genRate float64) (sim.Time, error) {
	env := st.Env()
	start := env.Now() // job time excludes whatever ran before submission
	var lastEnd sim.Time
	var firstErr error
	next := 0

	for _, tn := range cfg.Trackers {
		tn := tn
		for s := 0; s < cfg.MapSlots; s++ {
			env.Go(func(p *sim.Proc) {
				for {
					p.Sleep(cfg.Heartbeat)
					if next >= mappers || firstErr != nil {
						return
					}
					task := next
					next++
					name := fmt.Sprintf("/out/part-m-%05d", task)
					if err := st.CreateFile(name); err != nil {
						firstErr = err
						return
					}
					if err := streamBlocks(p, st, tn, name, bytesPerMapper, genRate); err != nil {
						firstErr = err
						return
					}
					if end := p.Now(); end > lastEnd {
						lastEnd = end
					}
				}
			})
		}
	}
	env.Run()
	if firstErr != nil {
		return 0, firstErr
	}
	return lastEnd - start + cfg.JobOverhead, nil
}

// grepSplit is one map task of the grep job.
type grepSplit struct {
	off, size int64
	node      simnet.NodeID
	taken     bool
}

// RunGrep simulates the distributed grep of Section V-G: one map per
// chunk of the (pre-written) input file, locality-preferring pull
// scheduling, per-task read + scan at scanRate, negligible reduce. It
// returns the job completion time.
func RunGrep(st simstore.Storage, cfg Config, input string, scanRate float64) (sim.Time, error) {
	env := st.Env()
	start := env.Now() // the boot-up phase that wrote the input is not job time
	size := st.Size(input)
	if size == 0 {
		return 0, fmt.Errorf("simmr: input %s is empty", input)
	}
	nodes := st.ChunkNodes(input)
	bs := st.BlockSize()
	var splits []*grepSplit
	for off := int64(0); off < size; off += bs {
		ln := bs
		if off+ln > size {
			ln = size - off
		}
		idx := int(off / bs)
		node := simnet.NodeID(-1)
		if idx < len(nodes) {
			node = nodes[idx]
		}
		splits = append(splits, &grepSplit{off: off, size: ln, node: node})
	}

	var lastEnd sim.Time
	var firstErr error
	remaining := len(splits)

	// take returns the next split for a tracker: node-local first
	// (Hadoop's "local maps"), else any pending ("remote maps").
	take := func(tn simnet.NodeID) *grepSplit {
		for _, s := range splits {
			if !s.taken && s.node == tn {
				s.taken = true
				return s
			}
		}
		for _, s := range splits {
			if !s.taken {
				s.taken = true
				return s
			}
		}
		return nil
	}

	for _, tn := range cfg.Trackers {
		tn := tn
		for sl := 0; sl < cfg.MapSlots; sl++ {
			env.Go(func(p *sim.Proc) {
				for {
					p.Sleep(cfg.Heartbeat)
					if remaining == 0 || firstErr != nil {
						return
					}
					s := take(tn)
					if s == nil {
						return
					}
					if err := st.ReadRange(p, tn, input, s.off, s.size); err != nil {
						firstErr = err
						return
					}
					p.Sleep(sim.DurationFromSeconds(float64(s.size) / scanRate))
					remaining--
					if end := p.Now(); end > lastEnd {
						lastEnd = end
					}
				}
			})
		}
	}
	env.Run()
	if firstErr != nil {
		return 0, firstErr
	}
	// The reduce phase fetches and merges every map's counter output.
	shuffle := sim.Time(len(splits)) * cfg.ShufflePerMap
	return lastEnd - start + shuffle + cfg.JobOverhead, nil
}
