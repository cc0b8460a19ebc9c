package bench

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
//  3. Durability has a throughput price: every record is fsynced
//     before its acknowledgement, against a volatile manager that
//     fsyncs nothing.
//
// RecoveryReport bundles all three for BENCH_recovery.json.

// controlBlock keeps the real-stack control-plane experiments quick:
// the properties under test are the publication line and the
// version-assignment queue, not data-plane bandwidth.
const controlBlock = 64 * util.KB

// RecoveryReport runs the three recovery experiments for
// BENCH_recovery.json; quick shrinks the sweeps for CI smoke runs.
func RecoveryReport(quick bool) (Report, error) {
	versions, fsyncN := 32, 2000
	counts := []int{1000, 5000, 20000}
	if quick {
		versions, fsyncN = 8, 200
		counts = []int{200, 1000}
	}
	dir, err := os.MkdirTemp("", "bench-recovery-*")
	if err != nil {
		return Report{}, err
	}
	defer os.RemoveAll(dir)
	durability, err := AblationCrashRecovery(dir, versions)
	if err != nil {
		return Report{}, fmt.Errorf("durability arm: %w", err)
	}
	replay, err := AblationRecoveryTime(dir, counts)
	if err != nil {
		return Report{}, fmt.Errorf("recovery-time arm: %w", err)
	}
	fsync, err := AblationFsyncPolicy(dir, fsyncN)
	if err != nil {
		return Report{}, fmt.Errorf("fsync arm: %w", err)
	}
	return Report{Sections: []Section{
		{"Crash recovery — publication-line durability (vmanager kill+restart)", durability},
		{"Crash recovery — cold replay time vs log length", replay},
		{"Crash recovery — fsync throughput cost", fsync},
	}}, nil
}

// AblationCrashRecovery runs the durability arms on a live cluster:
// write `versions` versions, crash and restart the version manager,
// and count what survived. The "no-wal" arm runs volatile (DataDir
// unset) and loses the line; the "wal" arm logs under dir and recovers
// it entirely.
func AblationCrashRecovery(dir string, versions int) ([]Series, error) {
	arms := []struct {
		name    string
		dataDir string
	}{
		{"no-wal", ""},
		{"wal", filepath.Join(dir, "cluster")},
	}
	ctx := context.Background()
	out := make([]Series, 0, len(arms))
	for _, arm := range arms {
		c, err := cluster.StartBlobSeer(cluster.Config{
			DataProviders: 2,
			MetaProviders: 1,
			BlockSize:     controlBlock,
			CallTimeout:   2 * time.Second,
			DataDir:       arm.dataDir,
		})
		if err != nil {
			return nil, err
		}
		b, err := c.NewClient("").CreateBlob(ctx, controlBlock, 1)
		if err != nil {
			c.Stop()
			return nil, err
		}
		payload := make([]byte, controlBlock)
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
// version) under dir, then time a cold Recover.
func AblationRecoveryTime(dir string, counts []int) ([]Series, error) {
	s := Series{Name: "replay", XLabel: "log records", YLabel: "recovery ms"}
	for i, n := range counts {
		logDir := filepath.Join(dir, fmt.Sprint("replay-", i))
		st, err := openState(logDir)
		if err != nil {
			return nil, err
		}
		m, err := st.CreateBlob(controlBlock, 1)
		if err == nil {
			err = publish(st, m.ID, n/2)
		}
		if err = errors.Join(err, st.CloseWAL()); err != nil {
			return nil, err
		}
		start := time.Now()
		if st, err = openState(logDir); err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		st.CloseWAL()
		s.Points = append(s.Points, Point{X: float64(n), Y: float64(elapsed.Microseconds()) / 1e3})
	}
	return []Series{s}, nil
}

// AblationFsyncPolicy measures what durability costs: assign+commit
// pairs per second on a bare version-manager core that fsyncs every
// record into a WAL under dir, against one with no WAL at all (the
// upper bound durability pays against).
func AblationFsyncPolicy(dir string, versions int) ([]Series, error) {
	var out []Series
	for _, name := range []string{"fsync-always", "no-wal"} {
		var st *vmanager.State
		var err error
		if name == "no-wal" {
			st = vmanager.NewState(nil)
		} else if st, err = openState(filepath.Join(dir, name)); err != nil {
			return nil, err
		}
		m, err := st.CreateBlob(controlBlock, 1)
		start := time.Now()
		if err == nil {
			err = publish(st, m.ID, versions)
		}
		elapsed := time.Since(start)
		st.CloseWAL()
		if err != nil {
			return nil, err
		}
		out = append(out, Series{
			Name: name, XLabel: "versions", YLabel: "publishes/sec",
			Points: []Point{{X: float64(versions), Y: float64(versions) / elapsed.Seconds()}},
		})
	}
	return out, nil
}

// openState opens the version-manager WAL in dir and recovers the
// state it holds; the state's CloseWAL closes the log.
func openState(dir string) (*vmanager.State, error) {
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	st, err := vmanager.Recover(log, nil)
	if err != nil {
		log.Close()
		return nil, err
	}
	return st, nil
}

// publish runs n assign+commit pairs, each appending one controlBlock
// to blob id.
func publish(st *vmanager.State, id blob.ID, n int) error {
	for i := range n {
		a, err := st.AssignVersion(id, blob.KindAppend, 0, controlBlock, uint64(i)+1, blob.NoVersion)
		if err != nil {
			return err
		}
		if err := st.Commit(id, a.Version); err != nil {
			return err
		}
	}
	return nil
}
