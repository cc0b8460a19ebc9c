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
	r, err := TieringBenchRun(true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Readable != 1.0 {
		t.Errorf("Readable = %.2f, want every demoted block back bit-exact", r.Readable)
	}
	if r.Demotions != int64(r.Blocks) {
		t.Errorf("Demotions = %d, want %d (one per block)", r.Demotions, r.Blocks)
	}
	if r.Promotions < int64(r.Blocks) {
		t.Errorf("Promotions = %d, want >= %d (cold arm promotes every block)", r.Promotions, r.Blocks)
	}
	if len(r.Throughput) != 4 {
		t.Fatalf("want 4 throughput arms, got %d", len(r.Throughput))
	}
	for _, s := range r.Throughput {
		if s.Name == "tiered-cold" && len(s.Points) != 1 {
			t.Errorf("cold arm should have exactly one pass, got %d", len(s.Points))
		}
	}
}
