package bench

import "testing"

// TestAblationVMShardsDirection pins the sharding claim: with the
// version manager's service time the bottleneck, 4 shards must buy at
// least 2.5x the aggregate publish throughput of 1 under 8 concurrent
// writers (the acceptance bar; ideal is 4x minus the data-path floor).
func TestAblationVMShardsDirection(t *testing.T) {
	series := AblationVMShards(8, 10, []int{1, 4})
	if len(series) != 1 || len(series[0].Points) != 2 {
		t.Fatalf("malformed series: %+v", series)
	}
	one, four := series[0].Points[0].Y, series[0].Points[1].Y
	if four < 2.5*one {
		t.Errorf("4 shards should buy >=2.5x publish throughput over 1: %.0f vs %.0f/s", four, one)
	}
}

// TestAblationVMShardsMonotone checks the full sweep keeps climbing:
// more shards never cost throughput while the control plane is the
// bottleneck.
func TestAblationVMShardsMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	series := AblationVMShards(8, 10, []int{1, 2, 4, 8})
	pts := series[0].Points
	for i := 1; i < len(pts); i++ {
		if pts[i].Y <= pts[i-1].Y {
			t.Errorf("K=%.0f (%.0f/s) should beat K=%.0f (%.0f/s)",
				pts[i].X, pts[i].Y, pts[i-1].X, pts[i-1].Y)
		}
	}
}

// TestGroupCommitCoalesces pins the WAL group-commit mechanism on the
// real log: 8 concurrent durable publishers must share fsyncs (strictly
// fewer fsyncs than records) and beat 2x the single-writer rate — the
// whole point of leader-follower batching.
func TestGroupCommitCoalesces(t *testing.T) {
	series, err := GroupCommitBench(t.TempDir(), 200, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	rate, coalesce := series[0], series[1]
	one, eight := rate.Points[0].Y, rate.Points[1].Y
	if eight < 2*one {
		t.Errorf("8 concurrent writers should publish >2x faster than 1 under group commit: %.0f vs %.0f/s", eight, one)
	}
	if f := coalesce.Points[1].Y; f >= 1.0 {
		t.Errorf("8 writers should coalesce fsyncs (fsyncs/record < 1), got %.3f", f)
	}
}
