package bench

import (
	"strings"
	"testing"
)

// The ablation runners re-run microbenchmark workloads with one design
// choice varied; these tests pin the *direction* each choice moves the
// result, which is the claim DESIGN.md makes for each.

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

func TestAblationMetadataProvidersDirection(t *testing.T) {
	series := AblationMetadataProviders(100, []int{1, 20})
	one, twenty := single(t, series[0]), single(t, series[1])
	if twenty <= one {
		t.Errorf("20 metadata providers (%.1f) should beat 1 (%.1f)", twenty, one)
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

// TestAblationRepairDirection pins the self-healing claim: after one
// provider dies and a repair pass runs, a failure wave that strips
// every original replica of some blocks (three consecutive providers
// down) loses data without repair and loses nothing with it — the
// relocated copies reached through the location overlay keep every
// block readable.
func TestAblationRepairDirection(t *testing.T) {
	series := AblationRepair(24, 8)
	byName := map[string]Series{}
	for _, s := range series {
		byName[s.Name] = s
	}
	lostNR := byName["lost-blocks-no-repair"].Points
	lostSH := byName["lost-blocks-self-heal"].Points
	if len(lostNR) != 3 || len(lostSH) != 3 {
		t.Fatalf("lost-blocks series malformed: %v / %v", lostNR, lostSH)
	}
	if lostNR[2].Y == 0 {
		t.Error("no-repair should lose blocks once three consecutive providers are dead")
	}
	if lostSH[2].Y != 0 {
		t.Errorf("self-heal lost %.0f blocks; repair + overlay should keep all readable", lostSH[2].Y)
	}
	rec := byName["recovery"].Points
	if len(rec) != 1 || rec[0].X == 0 || rec[0].Y <= 0 {
		t.Errorf("recovery series should report replicas re-created and a positive duration, got %v", rec)
	}
	// The throughput dip: losing a provider shifts its read load onto
	// the survivors.
	heal := byName["self-heal"].Points
	if !(heal[1].Y < heal[0].Y) {
		t.Errorf("expected a throughput dip after the first kill: %.1f -> %.1f", heal[0].Y, heal[1].Y)
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
