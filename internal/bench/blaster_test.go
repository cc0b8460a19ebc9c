package bench

import (
	"context"
	"testing"
	"time"

	"blobseer/internal/cluster"
	"blobseer/internal/obs"
	"blobseer/internal/util"
)

// TestBlasterShortRun drives a short mixed load against an in-process
// cluster and pins the report contract: work completed in the window,
// every op type observed, no op failed, and Check() green.
func TestBlasterShortRun(t *testing.T) {
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 2,
		MetaProviders: 2,
		BlockSize:     64 * util.KB,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	fsys, err := cl.NewBSFS("")
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	report, err := RunBlaster(context.Background(), BlasterConfig{
		FS:       fsys,
		Workers:  3,
		Duration: 400 * time.Millisecond,
		Ramp:     100 * time.Millisecond,
		Files:    4,
		IOSize:   8 * int(util.KB),
		Registry: reg,
		Seed:     42,
		OnError:  func(op string, err error) { t.Logf("op %s: %v", op, err) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if report.TotalOps == 0 || report.OpsPerSec <= 0 {
		t.Fatalf("empty run: %+v", report)
	}
	for _, op := range []string{"open", "read", "write", "append"} {
		st, ok := report.Ops[op]
		if !ok {
			t.Fatalf("report missing op %q", op)
		}
		if st.Count == 0 {
			t.Errorf("op %q never completed in the window", op)
		}
		if st.Count > 0 && st.P50us <= 0 {
			t.Errorf("op %q has %d observations but p50 %.1fµs", op, st.Count, st.P50us)
		}
	}
	// The live registry doubles as the /metrics surface: the same
	// counters the report was computed from must be visible there.
	snap := reg.Snapshot()
	if snap.Counters["bytes_read"] == 0 || snap.Counters["bytes_written"] == 0 {
		t.Errorf("registry byte counters not populated: %+v", snap.Counters)
	}

	// Long-run mode: a canceled context ends the window.
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	report2, err := RunBlaster(ctx, BlasterConfig{
		FS:       fsys,
		Workers:  2,
		Duration: 0, // until ctx cancels
		Files:    4,
		IOSize:   4 * int(util.KB),
		Seed:     7,
		OnError:  func(op string, err error) { t.Logf("long run: op %s: %v", op, err) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := report2.Check(); err != nil {
		t.Fatalf("long-run Check: %v", err)
	}
}

// TestBlasterCheckFailsOnAnyError pins the gate: one failed op fails
// Check, ops the window's end cut do not.
func TestBlasterCheckFailsOnAnyError(t *testing.T) {
	r := BlasterReport{TotalOps: 999, ErrorRate: 0.001}
	if err := r.Check(); err == nil {
		t.Fatal("Check passed a run with a failed op")
	}
	r.ErrorRate, r.Cut = 0, 2
	if err := r.Check(); err != nil {
		t.Fatalf("Check failed a clean run: %v", err)
	}
	if err := (BlasterReport{}).Check(); err == nil {
		t.Fatal("Check passed an empty run")
	}
}

// TestBlasterPacedOpenLoop: with Rate set the blaster paces ops from a
// global schedule and reports corrected percentiles measured from each
// op's intended start — the coordinated-omission-honest view. A trace
// hook tags sampled ops and the IDs surface in the report.
func TestBlasterPacedOpenLoop(t *testing.T) {
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 2,
		MetaProviders: 2,
		BlockSize:     64 * util.KB,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	fsys, err := cl.NewBSFS("")
	if err != nil {
		t.Fatal(err)
	}

	traced := 0
	report, err := RunBlaster(context.Background(), BlasterConfig{
		FS:       fsys,
		Workers:  2,
		Duration: 500 * time.Millisecond,
		Ramp:     50 * time.Millisecond,
		Files:    4,
		IOSize:   4 * int(util.KB),
		Rate:     200, // well under what the in-proc cluster sustains
		Seed:     11,
		Trace: func(ctx context.Context) (context.Context, string) {
			traced++
			tctx, id := obs.WithRoot(ctx)
			return tctx, id.String()
		},
		TraceEvery: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if report.TargetRate != 200 {
		t.Errorf("TargetRate = %v, want 200", report.TargetRate)
	}
	// A paced run at well under capacity completes close to rate*window
	// ops, not "as many as possible": the loop really is open.
	want := 200 * 0.5
	if f := float64(report.TotalOps); f < want/2 || f > want*2 {
		t.Errorf("paced run completed %d ops, want about %.0f", report.TotalOps, want)
	}
	if len(report.Corrected) == 0 {
		t.Fatal("paced report carries no corrected percentiles")
	}
	for op, st := range report.Ops {
		cs, ok := report.Corrected[op]
		if !ok || st.Count == 0 {
			continue
		}
		// Corrected latency includes the wait from the intended start,
		// so its percentiles can never undercut the service time's.
		if cs.P99us < st.P99us-1 {
			t.Errorf("op %s: corrected p99 %.0fµs below service p99 %.0fµs", op, cs.P99us, st.P99us)
		}
	}
	if traced == 0 || len(report.TraceIDs) == 0 {
		t.Errorf("trace hook fired %d times, report carries %d IDs; want both > 0",
			traced, len(report.TraceIDs))
	}
	for _, id := range report.TraceIDs {
		if _, err := obs.ParseID(id); err != nil {
			t.Errorf("reported trace ID %q unparseable: %v", id, err)
		}
	}
}

// TestBlasterClosedLoopHasNoCorrected: without Rate the corrected view
// must be absent, not zero-filled — closed-loop latency from intended
// start would be meaningless.
func TestBlasterClosedLoopHasNoCorrected(t *testing.T) {
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 1,
		MetaProviders: 1,
		BlockSize:     64 * util.KB,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	fsys, err := cl.NewBSFS("")
	if err != nil {
		t.Fatal(err)
	}
	report, err := RunBlaster(context.Background(), BlasterConfig{
		FS:       fsys,
		Workers:  1,
		Duration: 200 * time.Millisecond,
		Files:    2,
		IOSize:   4 * int(util.KB),
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.TargetRate != 0 || len(report.Corrected) != 0 || len(report.TraceIDs) != 0 {
		t.Errorf("closed-loop report leaked open-loop fields: rate %v, %d corrected, %d trace ids",
			report.TargetRate, len(report.Corrected), len(report.TraceIDs))
	}
}
