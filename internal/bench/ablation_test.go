package bench

import (
	"strings"
	"testing"
)

// The ablation runners re-run microbenchmark workloads with one design
// choice varied; these tests pin the *direction* each choice moves the
// result, which is the claim each runner's doc comment makes.

func single(t *testing.T, s Series) float64 {
	t.Helper()
	if len(s.Points) != 1 {
		t.Fatalf("series %s has %d points, want 1", s.Name, len(s.Points))
	}
	return s.Points[0].Y
}

func TestAblationPlacementDirection(t *testing.T) {
	series := AblationPlacement(100)
	byName := map[string]float64{}
	for _, s := range series {
		byName[s.Name] = single(t, s)
	}
	if byName["roundrobin"] <= 3*byName["sticky(8)"] {
		t.Errorf("round-robin %.1f should beat sticky %.1f by >3x under concurrent reads",
			byName["roundrobin"], byName["sticky(8)"])
	}
	if byName["random"] <= byName["sticky(8)"] {
		t.Errorf("random %.1f should beat sticky %.1f", byName["random"], byName["sticky(8)"])
	}
}

func TestAblationVMServiceDirection(t *testing.T) {
	series := AblationVMService(100, []float64{0.5, 50})
	fast, slow := single(t, series[0]), single(t, series[1])
	if fast <= 2*slow {
		t.Errorf("a 100x faster version manager should buy >2x aggregate append throughput: %.0f vs %.0f", fast, slow)
	}
}

func TestAblationBlockSizeInsensitiveForSingleWriter(t *testing.T) {
	series := AblationBlockSize(2, []int{16, 128})
	small, large := single(t, series[0]), single(t, series[1])
	if diff := (large - small) / large; diff > 0.1 || diff < -0.1 {
		t.Errorf("single-writer throughput should be block-size insensitive: 16MB %.1f vs 128MB %.1f", small, large)
	}
}

func TestAblationReplicationNearInsensitive(t *testing.T) {
	series := AblationReplication(2, []int{1, 2})
	byName := map[string]float64{}
	for _, s := range series {
		byName[s.Name] = single(t, s)
	}
	// Chain replication moves the replication tax provider-to-provider:
	// a client pushing every copy itself would halve its rate at R=2;
	// the chain must stay near its own R=1 rate.
	if byName["repl=2"] < 0.8*byName["repl=1"] {
		t.Errorf("chained write throughput should be near replication-insensitive: r1 %.1f, r2 %.1f",
			byName["repl=1"], byName["repl=2"])
	}
}

func TestTableRendering(t *testing.T) {
	s := []Series{
		{Name: "A", XLabel: "x", YLabel: "u", Points: []Point{{1, 10}, {2, 20}}},
		{Name: "B", XLabel: "x", YLabel: "u", Points: []Point{{1, 30}}},
	}
	out := Table("title", s)
	if !strings.Contains(out, "title") || !strings.Contains(out, "A (u)") || !strings.Contains(out, "B (u)") {
		t.Fatalf("missing headers:\n%s", out)
	}
	if !strings.Contains(out, "30.00") {
		t.Fatalf("missing value:\n%s", out)
	}
	// Series B has no point at x=2: rendered as a dash, not a crash.
	if !strings.Contains(out, "-") {
		t.Fatalf("missing placeholder for short series:\n%s", out)
	}
	if Table("empty", nil) == "" {
		t.Fatal("empty table should still carry its title")
	}
}

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
