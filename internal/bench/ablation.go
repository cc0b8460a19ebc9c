package bench

import (
	"fmt"

	"blobseer/internal/placement"
	"blobseer/internal/sim"
	"blobseer/internal/simstore"
	"blobseer/internal/util"
)

// Ablation experiments: each isolates one design choice the paper
// calls out and re-runs a microbenchmark with that choice varied, one
// arm per value at a single x. They answer "how much of the headline
// result does this mechanism buy?".

// AblationPlacement re-runs the Figure 4 concurrent-read workload with
// BlobSeer's placement strategy swapped out (Sections V-D/V-E credit
// the round-robin balance for the sustained read throughput).
func AblationPlacement(clients int) []Series {
	names := []string{"roundrobin", "random", "sticky(8)", "leastloaded"}
	strategies := []placement.Strategy{
		placement.NewRoundRobin(), placement.NewRandom(7), placement.NewRandomSticky(8, 7), placement.NewLeastLoaded(),
	}
	return sweep("clients", "MB/s per client", []float64{float64(clients)}, names, func(a, _ int) float64 {
		st, nodes := deploy("BSFS", simstore.DefaultTuning(), strategies[a], BlockSize, 1)
		return readChunks(st, nodes, clients)
	})
}

// AblationVMService re-runs the Figure 5 concurrent-append workload
// with the version manager's per-operation service time varied: version
// assignment is the only serialization point of the write protocol
// (Section III-A4), so this measures how slow it may get before it
// gates the aggregate throughput.
func AblationVMService(clients int, serviceMS []float64) []Series {
	return sweep("clients", "aggregated MB/s", []float64{float64(clients)}, labels("vm=%.1fms", serviceMS), func(a, _ int) float64 {
		tun := simstore.DefaultTuning()
		tun.VMService = sim.Time(serviceMS[a] * float64(sim.Millisecond))
		return appendShared(tun, clients)
	})
}

// AblationBlockSize re-runs the Figure 3a single-writer workload with
// the striping unit varied (the GPFS discussion of Section II-B: 16 MB
// blocks vs Hadoop's 64 MB chunks).
func AblationBlockSize(fileGB float64, blockMBs []int) []Series {
	return sweep("file size (GB)", "MB/s", []float64{fileGB}, labels("block=%dMB", blockMBs), func(a, _ int) float64 {
		return writeThroughput(int64(blockMBs[a])*util.MB, 1, fileGB)
	})
}

// AblationReplication re-runs the single-writer workload with the data
// replication level varied (the fault-tolerance mechanism of Section
// VI-B: each block is written to `r` providers). Chain replication
// ships each block once and pushes the extra copies
// provider-to-provider, so the client link stays the only bottleneck
// and throughput barely moves with r.
func AblationReplication(fileGB float64, replications []int) []Series {
	return sweep("file size (GB)", "MB/s", []float64{fileGB}, labels("repl=%d", replications), func(a, _ int) float64 {
		return writeThroughput(BlockSize, replications[a], fileGB)
	})
}

// AblationVMShards splits the version manager into K shards, each with
// the calibrated service time AblationVMService sweeps, and measures
// aggregate publish throughput with each writer appending versions
// 64 KB chunks to its own blob (the Map/Reduce output pattern: many
// files, many writers). The simulated manager picks a blob's shard
// with vmanager.ShardOf, the rule the real client routes by, so
// writers on different shards never share a service queue and
// throughput scales ~linearly in K until the data path becomes the
// floor (Section III-A4).
func AblationVMShards(writers, versions int, shardCounts []int) []Series {
	return sweep("shards", "publishes/sec", floats(shardCounts), []string{"sharded-vm"}, func(_, i int) float64 {
		tun := simstore.DefaultTuning()
		tun.VMShards = shardCounts[i]
		st, nodes := deploy("BSFS", tun, placement.NewRoundRobin(), 64*util.KB, 1)
		files := make([]string, writers)
		for w := range files {
			files[w] = fmt.Sprint("/f", w)
			must(st.CreateFile(files[w]))
		}
		return float64(writers*versions) / appendAll(st, nodes, files, 7, versions).Seconds()
	})
}

// writeThroughput is the single-writer workload on BSFS over bs-byte
// blocks with r copies each: the dedicated client's MB/s writing gb
// rounded down to whole blocks.
func writeThroughput(bs int64, r int, gb float64) float64 {
	st, _ := deploy("BSFS", simstore.DefaultTuning(), placement.NewRoundRobin(), bs, r)
	size := chunks(gb, bs)
	return mbps(size, writeFile(st, clientNode, "/f", size))
}

// labels names one arm per value.
func labels[T any](format string, vals []T) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprintf(format, v)
	}
	return out
}
