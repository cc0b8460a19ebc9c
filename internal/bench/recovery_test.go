package bench

import (
	"path/filepath"
	"testing"
)

// TestCrashRecoveryDirection pins the ablation's headline claims: the
// volatile arm loses the publication line a crash erases, the WAL arm
// recovers every acknowledged version, and both auxiliary sweeps
// produce sane positive measurements.
func TestCrashRecoveryDirection(t *testing.T) {
	r, err := RecoveryReport(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Sections) != 3 {
		t.Fatalf("report has %d sections, want durability, recovery time and fsync cost", len(r.Sections))
	}
	durability, replay, fsync := r.Sections[0].Series, r.Sections[1].Series, r.Sections[2].Series

	byName := map[string]Series{}
	for _, s := range durability {
		byName[s.Name] = s
	}
	noWAL, ok := byName["no-wal"]
	if !ok || len(noWAL.Points) != 1 {
		t.Fatalf("missing no-wal durability arm: %+v", durability)
	}
	if noWAL.Points[0].X == 0 {
		t.Fatal("no-wal arm acknowledged zero writes; nothing was tested")
	}
	if noWAL.Points[0].Y != 0 {
		t.Errorf("no-wal arm survived %v versions across a crash; expected the publication line lost",
			noWAL.Points[0].Y)
	}
	walArm, ok := byName["wal"]
	if !ok || len(walArm.Points) != 1 {
		t.Fatalf("missing wal durability arm: %+v", durability)
	}
	if walArm.Points[0].Y != walArm.Points[0].X {
		t.Errorf("wal arm recovered %v of %v acknowledged versions; durability must be total",
			walArm.Points[0].Y, walArm.Points[0].X)
	}

	if len(replay) != 1 || len(replay[0].Points) < 2 {
		t.Fatalf("recovery-time sweep too small: %+v", replay)
	}
	for _, p := range replay[0].Points {
		if p.Y < 0 {
			t.Errorf("negative recovery time at %v records", p.X)
		}
	}

	if len(fsync) != 2 {
		t.Fatalf("fsync sweep arms = %d, want 2", len(fsync))
	}
	for _, s := range fsync {
		if len(s.Points) != 1 || s.Points[0].Y <= 0 {
			t.Errorf("fsync arm %s: non-positive throughput %+v", s.Name, s.Points)
		}
	}

	// The report must serialize: it is the BENCH_recovery.json artifact.
	if err := WriteJSON(filepath.Join(t.TempDir(), "BENCH_recovery.json"), r); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
}
