package bench

import (
	"context"
	"fmt"
	"os"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/cluster"
	"blobseer/internal/util"
	"blobseer/internal/vmanager"
	"blobseer/internal/wal"
)

// Crash-recovery ablation: the durability layer's three claims,
// measured on the real (in-process) stack rather than the simulator —
// recovery cost and fsync cost are wall-clock properties of the WAL
// implementation, not of the modeled fabric.
//
//  1. Durability: without a WAL a version-manager crash erases the
//     publication line; with one, every acknowledged write survives.
//  2. Recovery time grows with the un-snapshotted log suffix.
//  3. Fsync policy is the durability/throughput trade: every-record
//     fsync pays per operation, interval fsync amortizes it.
//
// CrashRecoveryBench bundles all three for BENCH_recovery.json.

// recoveryBlock keeps the durability arms quick: the property under
// test is the publication line, not data-plane bandwidth.
const recoveryBlock = 64 * util.KB

// AblationCrashRecovery runs the durability arms on a live cluster:
// write `versions` versions, crash and restart the version manager,
// and count what survived. The "no-wal" arm runs volatile (DataDir
// unset) and loses the line; the "wal" arm recovers it entirely.
func AblationCrashRecovery(versions int) ([]Series, error) {
	arms := []struct {
		name    string
		durable bool
	}{
		{"no-wal", false},
		{"wal", true},
	}
	ctx := context.Background()
	out := make([]Series, 0, len(arms))
	for _, arm := range arms {
		cfg := cluster.Config{
			DataProviders: 2,
			MetaProviders: 1,
			BlockSize:     recoveryBlock,
			CallTimeout:   2 * time.Second,
		}
		if arm.durable {
			dir, err := os.MkdirTemp("", "bench-recovery-*")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			cfg.DataDir = dir
		}
		c, err := cluster.StartBlobSeer(cfg)
		if err != nil {
			return nil, err
		}
		b, err := c.NewClient("").CreateBlob(ctx, recoveryBlock, 1)
		if err != nil {
			c.Stop()
			return nil, err
		}
		payload := make([]byte, recoveryBlock)
		acked := 0
		for i := 0; i < versions; i++ {
			if _, err := b.Append(ctx, payload); err == nil {
				acked++
			}
		}
		c.KillVManager()
		if err := c.RestartVManager(); err != nil {
			c.Stop()
			return nil, err
		}
		survived := 0
		vm := vmanager.NewClient(c.Pool, c.VMAddrs...)
		if pub, _, err := vm.Latest(ctx, b.ID()); err == nil {
			survived = int(pub)
		}
		c.Stop()
		out = append(out, Series{
			Name: arm.name, XLabel: "acked versions", YLabel: "survived versions",
			Points: []Point{{X: float64(acked), Y: float64(survived)}},
		})
	}
	return out, nil
}

// AblationRecoveryTime measures replay cost against log length: build
// a version-manager WAL of n records (one assign + one commit per
// version), then time a cold Recover.
func AblationRecoveryTime(counts []int) ([]Series, error) {
	s := Series{Name: "replay", XLabel: "log records", YLabel: "recovery ms"}
	for _, n := range counts {
		dir, err := os.MkdirTemp("", "bench-replay-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		// Interval sync while seeding: we measure replay, not append.
		if err := seedVMLog(dir, n/2); err != nil {
			return nil, err
		}
		start := time.Now()
		log, err := wal.Open(dir, wal.Options{Policy: wal.SyncInterval, Interval: 50 * time.Millisecond})
		if err != nil {
			return nil, err
		}
		st, err := vmanager.Recover(log, nil)
		if err != nil {
			log.Close()
			return nil, err
		}
		elapsed := time.Since(start)
		st.CloseWAL()
		s.Points = append(s.Points, Point{X: float64(n), Y: float64(elapsed.Microseconds()) / 1e3})
	}
	return []Series{s}, nil
}

// seedVMLog writes a WAL holding `versions` committed versions (plus
// the create record) and closes it.
func seedVMLog(dir string, versions int) error {
	log, err := wal.Open(dir, wal.Options{Policy: wal.SyncInterval, Interval: 50 * time.Millisecond})
	if err != nil {
		return err
	}
	st, err := vmanager.Recover(log, nil)
	if err != nil {
		log.Close()
		return err
	}
	defer st.CloseWAL()
	m, err := st.CreateBlob(recoveryBlock, 1)
	if err != nil {
		return err
	}
	for i := 0; i < versions; i++ {
		a, err := st.AssignVersion(m.ID, blob.KindAppend, 0, recoveryBlock, uint64(i)+1, blob.NoVersion)
		if err != nil {
			return err
		}
		if err := st.Commit(m.ID, a.Version); err != nil {
			return err
		}
	}
	return nil
}

// AblationFsyncPolicy measures the throughput cost of the fsync
// policy: assign+commit pairs per second on a bare version-manager
// core under every-record fsync, interval fsync, and no WAL at all
// (the upper bound durability pays against).
func AblationFsyncPolicy(versions int) ([]Series, error) {
	arms := []struct {
		name string
		opts *wal.Options // nil = volatile
	}{
		{"fsync-always", &wal.Options{Policy: wal.SyncAlways}},
		{"fsync-5ms", &wal.Options{Policy: wal.SyncInterval, Interval: 5 * time.Millisecond}},
		{"no-wal", nil},
	}
	out := make([]Series, 0, len(arms))
	for _, arm := range arms {
		var st *vmanager.State
		if arm.opts == nil {
			st = vmanager.NewState(nil)
		} else {
			dir, err := os.MkdirTemp("", "bench-fsync-*")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			log, err := wal.Open(dir, *arm.opts)
			if err != nil {
				return nil, err
			}
			st, err = vmanager.Recover(log, nil)
			if err != nil {
				log.Close()
				return nil, err
			}
		}
		m, err := st.CreateBlob(recoveryBlock, 1)
		if err != nil {
			st.CloseWAL()
			return nil, err
		}
		start := time.Now()
		for i := 0; i < versions; i++ {
			a, err := st.AssignVersion(m.ID, blob.KindAppend, 0, recoveryBlock, uint64(i)+1, blob.NoVersion)
			if err != nil {
				st.CloseWAL()
				return nil, err
			}
			if err := st.Commit(m.ID, a.Version); err != nil {
				st.CloseWAL()
				return nil, err
			}
		}
		elapsed := time.Since(start)
		st.CloseWAL()
		opsPerSec := float64(versions) / elapsed.Seconds()
		out = append(out, Series{
			Name: arm.name, XLabel: "versions", YLabel: "publishes/sec",
			Points: []Point{{X: float64(versions), Y: opsPerSec}},
		})
	}
	return out, nil
}

// RecoveryBench is the BENCH_recovery.json document.
type RecoveryBench struct {
	Durability   []Series `json:"durability"`
	RecoveryTime []Series `json:"recovery_time"`
	FsyncCost    []Series `json:"fsync_cost"`
}

// CrashRecoveryBench runs all three recovery experiments. quick
// shrinks the sweeps for CI smoke runs.
func CrashRecoveryBench(quick bool) (RecoveryBench, error) {
	versions, fsyncN := 32, 2000
	counts := []int{1000, 5000, 20000}
	if quick {
		versions, fsyncN = 8, 200
		counts = []int{200, 1000}
	}
	var r RecoveryBench
	var err error
	if r.Durability, err = AblationCrashRecovery(versions); err != nil {
		return r, fmt.Errorf("durability arm: %w", err)
	}
	if r.RecoveryTime, err = AblationRecoveryTime(counts); err != nil {
		return r, fmt.Errorf("recovery-time arm: %w", err)
	}
	if r.FsyncCost, err = AblationFsyncPolicy(fsyncN); err != nil {
		return r, fmt.Errorf("fsync arm: %w", err)
	}
	return r, nil
}
