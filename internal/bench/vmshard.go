package bench

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/placement"
	"blobseer/internal/simstore"
	"blobseer/internal/vmanager"
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

// VMShardReport runs both control-plane scaling experiments for
// BENCH_vmshard.json; quick shrinks the sweeps for CI smoke runs.
func VMShardReport(quick bool) (Report, error) {
	writers, versions, gcVersions := 8, 50, 400
	shardCounts, writerCounts := []int{1, 2, 4, 8}, []int{1, 2, 8}
	if quick {
		versions, gcVersions = 10, 100
		shardCounts, writerCounts = []int{1, 4}, []int{1, 8}
	}
	dir, err := os.MkdirTemp("", "bench-vmshard-*")
	if err != nil {
		return Report{}, err
	}
	defer os.RemoveAll(dir)
	groupCommit, err := GroupCommitBench(dir, gcVersions, writerCounts)
	if err != nil {
		return Report{}, fmt.Errorf("group-commit arm: %w", err)
	}
	return Report{Sections: []Section{
		{"Control-plane sharding — publish throughput vs shard count (8 writers)", AblationVMShards(writers, versions, shardCounts)},
		{"WAL group commit — durable publish rate vs concurrent writers", groupCommit},
	}}, nil
}

// AblationVMShards measures aggregate publish throughput with the
// control plane split into K shards, each writer appending to its own
// blob (the Map/Reduce output pattern: many files, many writers).
// Blob IDs spread over shards by id % K, exactly the Router's rule.
func AblationVMShards(writers, versions int, shardCounts []int) []Series {
	return sweep("shards", "publishes/sec", floats(shardCounts), []string{"sharded-vm"}, func(_, i int) float64 {
		tun := simstore.DefaultTuning()
		tun.VMShards = shardCounts[i]
		st, nodes := deploy("BSFS", tun, placement.NewRoundRobin(), metaCount, controlBlock, 1)
		files := make([]string, writers)
		for w := range files {
			files[w] = fmt.Sprint("/f", w)
			must(st.CreateFile(files[w]))
		}
		return float64(writers*versions) / appendAll(st, nodes, files, 7, versions).Seconds()
	})
}

// GroupCommitBench measures durable publish throughput on a real
// WAL-backed version manager under every-record fsync as the writer
// count grows, each count logging in its own directory under dir.
// Each writer publishes to its own blob; the WAL's group commit lets
// concurrent AppendSyncs share fsyncs, so the aggregate rate should
// scale well past the single-writer fsync ceiling. The second series
// reports fsyncs per durable record (1.0 = no coalescing).
func GroupCommitBench(dir string, versions int, writerCounts []int) ([]Series, error) {
	rate := Series{Name: "group-commit", XLabel: "writers", YLabel: "publishes/sec"}
	coalesce := Series{Name: "fsyncs-per-record", XLabel: "writers", YLabel: "fsyncs/record"}
	for i, w := range writerCounts {
		st, err := openState(filepath.Join(dir, fmt.Sprint("groupcommit-", i)))
		if err != nil {
			return nil, err
		}
		elapsed, perRecord, err := publishConcurrently(st, w, versions)
		st.CloseWAL()
		if err != nil {
			return nil, err
		}
		rate.Points = append(rate.Points, Point{X: float64(w), Y: float64(w*versions) / elapsed.Seconds()})
		coalesce.Points = append(coalesce.Points, Point{X: float64(w), Y: perRecord})
	}
	return []Series{rate, coalesce}, nil
}

// publishConcurrently runs w writers at once on st, each publishing
// versions versions of its own new blob. It returns how long they took
// and the fsyncs the log issued per record they wrote.
func publishConcurrently(st *vmanager.State, w, versions int) (time.Duration, float64, error) {
	ids := make([]blob.ID, w)
	for i := range ids {
		m, err := st.CreateBlob(controlBlock, 1)
		if err != nil {
			return 0, 0, err
		}
		ids[i] = m.ID
	}
	before, err := st.WALStatus()
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	errs := make([]error, w)
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = publish(st, id, versions)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	after, err := st.WALStatus()
	if err := errors.Join(append(errs, err)...); err != nil {
		return 0, 0, err
	}
	return elapsed, float64(after.Syncs-before.Syncs) / float64(after.Records-before.Records), nil
}
