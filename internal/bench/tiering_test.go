package bench

import "testing"

// TestAblationTiering runs the CI-scale tiering ablation once and pins
// what it determines regardless of machine load: every demoted block
// comes back bit-exact through promotion, each block is demoted once
// and promoted by the cold pass, and the report has its four arms with
// a single cold pass. The wall-clock gates (tiered hot path within 10%
// of plain fs, and whatever follows from pass timings) are not for a
// test that shares the machine with `go test ./...`: Check enforces
// them where `figures -tiering` runs alone.
func TestAblationTiering(t *testing.T) {
	r, err := TieringReport(true)
	if err != nil {
		t.Fatal(err)
	}
	v := r.Values
	if v["blocks"] == 0 {
		t.Fatalf("report carries no block count: %v", v)
	}
	if v["readable"] != 1.0 {
		t.Errorf("readable = %.2f, want every demoted block back bit-exact", v["readable"])
	}
	if v["demotions"] != v["blocks"] {
		t.Errorf("demotions = %.0f, want %.0f (one per block)", v["demotions"], v["blocks"])
	}
	if v["promotions"] < v["blocks"] {
		t.Errorf("promotions = %.0f, want >= %.0f (cold arm promotes every block)", v["promotions"], v["blocks"])
	}
	if len(r.Sections) != 1 || len(r.Sections[0].Series) != 4 {
		t.Fatalf("want one table of 4 throughput arms, got %+v", r.Sections)
	}
	for _, s := range r.Sections[0].Series {
		if s.Name == "tiered-cold" && len(s.Points) != 1 {
			t.Errorf("cold arm should have exactly one pass, got %d", len(s.Points))
		}
	}
}
