package bench

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestGolden pins every simulated number: it regenerates what `figures
// -quick` and `figures -ablations` print and compares that with the
// output recorded in testdata, token by token. Text must match exactly;
// numbers within 1e-6 relative, so a build that fuses multiply-adds
// (arm64) still passes. A change that moves the simulator rewrites the
// files on purpose:
//
//	go run ./cmd/figures -quick > internal/bench/testdata/figures_quick.txt
//	go run ./cmd/figures -ablations > internal/bench/testdata/ablations.txt
func TestGolden(t *testing.T) {
	for _, g := range []struct {
		file string
		exps []Experiment
	}{
		{"figures_quick.txt", Figures(true)},
		{"ablations.txt", Ablations()},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", g.file))
		if err != nil {
			t.Fatal(err)
		}
		var got strings.Builder
		for _, e := range g.exps {
			got.WriteString(Table(e.Title, e.Run()) + "\n")
		}
		if err := sameTokens(got.String(), string(want)); err != nil {
			t.Errorf("%s: %v; got:\n%s", g.file, err, got.String())
		}
	}
}

// sameTokens compares got with want field by field: text exactly,
// numbers within 1e-6 relative.
func sameTokens(got, want string) error {
	g, w := strings.Fields(got), strings.Fields(want)
	if len(g) != len(w) {
		return fmt.Errorf("%d tokens, want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] == w[i] {
			continue
		}
		a, errA := strconv.ParseFloat(g[i], 64)
		b, errB := strconv.ParseFloat(w[i], 64)
		if errA != nil || errB != nil || math.Abs(a-b) > 1e-6*math.Max(math.Abs(a), math.Abs(b)) {
			return fmt.Errorf("token %d is %q, want %q", i, g[i], w[i])
		}
	}
	return nil
}
