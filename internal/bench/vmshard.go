package bench

import (
	"fmt"
	"os"
	"sync"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/placement"
	"blobseer/internal/sim"
	"blobseer/internal/simnet"
	"blobseer/internal/simstore"
	"blobseer/internal/util"
	"blobseer/internal/vmanager"
	"blobseer/internal/wal"
)

// Control-plane scaling experiments for BENCH_vmshard.json: how far the
// two mechanisms that attack the version manager's serialization point
// (Section III-A4) actually go.
//
//  1. Sharding: with K independent version-manager shards, writers to
//     blobs owned by different shards never share a service queue, so
//     aggregate publication throughput should scale ~linearly in K
//     until something else (the data path) becomes the floor.
//  2. WAL group commit: under every-record fsync, concurrent publishers
//     coalesce into shared fsyncs, so aggregate durable publish rate
//     *rises* with writer count instead of staying flat at 1/fsync.
//
// The sharding arm runs on the simulator, where the version manager's
// per-op service time is the modeled bottleneck (the same calibration
// AblationVMService sweeps): that isolates the queueing effect of K from
// disk-speed noise. The group-commit arm runs on the real WAL, because
// fsync coalescing is a wall-clock property of the implementation.

// vmshardBlock keeps the publish loop control-plane-bound: the property
// under test is the version-assignment queue, not data bandwidth.
const vmshardBlock = 64 * util.KB

// AblationVMShards measures aggregate publish throughput with the
// control plane split into K shards, each writer appending to its own
// blob (the Map/Reduce output pattern: many files, many writers).
// Blob IDs spread over shards by id % K, exactly the Router's rule.
func AblationVMShards(writers, versions int, shardCounts []int) []Series {
	s := Series{Name: "sharded-vm", XLabel: "shards", YLabel: "publishes/sec"}
	for _, k := range shardCounts {
		tun := simstore.DefaultTuning()
		tun.VMShards = k
		env := sim.NewEnv()
		net := simnet.New(env, simnet.Grid5000(fabricNodes))
		vmNode, metas, provs := bsfsTopology()
		b := simstore.NewBSFS(net, tun, placement.NewRoundRobin(), vmNode, metas, provs)
		blobs := make([]blob.Meta, writers)
		for i := range blobs {
			blobs[i] = b.CreateBlob(vmshardBlock, 1)
		}
		var last sim.Time
		for i := 0; i < writers; i++ {
			i := i
			client := provs[(i*7+len(provs)/2)%len(provs)]
			b.Env.Go(func(p *sim.Proc) {
				for v := 0; v < versions; v++ {
					if _, err := b.Write(p, client, blobs[i].ID, blob.KindAppend, 0, vmshardBlock, uint64(v)+1); err != nil {
						panic(err)
					}
				}
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		b.Env.Run()
		s.Points = append(s.Points, Point{X: float64(k), Y: float64(writers*versions) / last.Seconds()})
	}
	return []Series{s}
}

// GroupCommitBench measures durable publish throughput on a real
// WAL-backed version manager under every-record fsync, as the writer
// count grows. Each writer publishes to its own blob; the WAL's group
// commit lets concurrent AppendSyncs share fsyncs, so the aggregate
// rate should scale well past the single-writer fsync ceiling. Each
// series point also implies the coalescing ratio: the returned fsync
// series reports fsyncs per durable record (1.0 = no coalescing).
func GroupCommitBench(versions int, writerCounts []int) ([]Series, error) {
	rate := Series{Name: "group-commit", XLabel: "writers", YLabel: "publishes/sec"}
	coalesce := Series{Name: "fsyncs-per-record", XLabel: "writers", YLabel: "fsyncs/record"}
	for _, w := range writerCounts {
		dir, err := os.MkdirTemp("", "bench-groupcommit-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		log, err := wal.Open(dir, wal.Options{Policy: wal.SyncAlways})
		if err != nil {
			return nil, err
		}
		st, err := vmanager.Recover(log, nil)
		if err != nil {
			log.Close()
			return nil, err
		}
		blobs := make([]blob.Meta, w)
		for i := range blobs {
			if blobs[i], err = st.CreateBlob(vmshardBlock, 1); err != nil {
				st.CloseWAL()
				return nil, err
			}
		}
		before, err := st.WALStatus()
		if err != nil {
			st.CloseWAL()
			return nil, err
		}
		start := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, w)
		for i := 0; i < w; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				id := blobs[i].ID
				for v := 0; v < versions; v++ {
					a, err := st.AssignVersion(id, blob.KindAppend, 0, vmshardBlock, uint64(v)+1, blob.NoVersion)
					if err != nil {
						errs[i] = err
						return
					}
					if err := st.Commit(id, a.Version); err != nil {
						errs[i] = err
						return
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		after, err := st.WALStatus()
		st.CloseWAL()
		if err != nil {
			return nil, err
		}
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
		records := after.Records - before.Records
		syncs := after.Syncs - before.Syncs
		rate.Points = append(rate.Points, Point{X: float64(w), Y: float64(w*versions) / elapsed.Seconds()})
		coalesce.Points = append(coalesce.Points, Point{X: float64(w), Y: float64(syncs) / float64(records)})
	}
	return []Series{rate, coalesce}, nil
}

// VMShardBench is the BENCH_vmshard.json document.
type VMShardBench struct {
	ShardScaling []Series `json:"shard_scaling"`
	GroupCommit  []Series `json:"group_commit"`
}

// VMShardScalingBench runs both control-plane scaling experiments.
// quick shrinks the sweeps for CI smoke runs.
func VMShardScalingBench(quick bool) (VMShardBench, error) {
	writers, versions, gcVersions := 8, 50, 400
	shardCounts := []int{1, 2, 4, 8}
	writerCounts := []int{1, 2, 8}
	if quick {
		versions, gcVersions = 10, 100
		shardCounts = []int{1, 4}
		writerCounts = []int{1, 8}
	}
	var r VMShardBench
	var err error
	r.ShardScaling = AblationVMShards(writers, versions, shardCounts)
	if r.GroupCommit, err = GroupCommitBench(gcVersions, writerCounts); err != nil {
		return r, fmt.Errorf("group-commit arm: %w", err)
	}
	return r, nil
}
