package bench

import "testing"

// These tests pin the qualitative findings of the paper's evaluation
// (Section V): who wins, in which direction each curve moves, and
// roughly by what factor. They are the repository's regression guard
// for the reproduced figures; `go run ./cmd/figures` prints the exact
// values, the same on every run.

func ys(s Series) []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.Y
	}
	return out
}

// TestFig3aShape: a single writer sustains significantly higher
// throughput on BSFS than on HDFS at every file size, and BSFS holds
// its throughput as the file grows to 16 GB.
func TestFig3aShape(t *testing.T) {
	series := Fig3a([]float64{1, 4, 16})
	hdfs, bsfs := ys(series[0]), ys(series[1])
	for i := range hdfs {
		if bsfs[i] <= hdfs[i]*1.2 {
			t.Errorf("size %v GB: BSFS %.1f MB/s should beat HDFS %.1f MB/s by >20%%",
				series[0].Points[i].X, bsfs[i], hdfs[i])
		}
	}
	if min, max := minMax(bsfs); min < 0.9*max {
		t.Errorf("BSFS single-writer throughput should be sustained, got spread [%.1f, %.1f]", min, max)
	}
}

// TestFig3bShape: HDFS's layout unbalance grows steeply with file size
// while BSFS stays much closer to the ideal balanced layout.
func TestFig3bShape(t *testing.T) {
	series := Fig3b([]float64{1, 8, 16})
	hdfs, bsfs := ys(series[0]), ys(series[1])
	if !(hdfs[0] < hdfs[1] && hdfs[1] < hdfs[2]) {
		t.Errorf("HDFS unbalance should grow with file size: %v", hdfs)
	}
	if bsfs[2] > hdfs[2]/3 {
		t.Errorf("at 16 GB BSFS unbalance %.1f should be far below HDFS %.1f", bsfs[2], hdfs[2])
	}
}

// TestFig4Shape: under concurrent readers of a shared file, BSFS
// delivers roughly flat per-client throughput while HDFS collapses.
func TestFig4Shape(t *testing.T) {
	series := Fig4([]int{1, 100, 250})
	hdfs, bsfs := ys(series[0]), ys(series[1])
	if bsfs[2] < 0.8*bsfs[0] {
		t.Errorf("BSFS per-client read throughput should stay near-flat: 1 client %.1f vs 250 clients %.1f", bsfs[0], bsfs[2])
	}
	if hdfs[2] > 0.5*hdfs[0] {
		t.Errorf("HDFS per-client read throughput should collapse under concurrency: 1 client %.1f vs 250 clients %.1f", hdfs[0], hdfs[2])
	}
	if bsfs[2] < 3*hdfs[2] {
		t.Errorf("at 250 clients BSFS %.1f should beat HDFS %.1f by >3x", bsfs[2], hdfs[2])
	}
}

// TestFig5Shape: aggregated append throughput scales with the number of
// concurrent appenders (the version manager does not serialize data).
func TestFig5Shape(t *testing.T) {
	series := Fig5([]int{1, 50, 250})
	bsfs := ys(series[0])
	if bsfs[1] < 20*bsfs[0] {
		t.Errorf("50 appenders should aggregate >20x one appender: %.0f vs %.0f MB/s", bsfs[1], bsfs[0])
	}
	if bsfs[2] < 2.5*bsfs[1] {
		t.Errorf("250 appenders should aggregate >2.5x 50 appenders: %.0f vs %.0f MB/s", bsfs[2], bsfs[1])
	}
}

// TestFig6aShape: RandomTextWriter completes faster on BSFS at every
// mapper count, with the relative gain growing as fewer, bigger mappers
// make the single-writer pattern dominate (paper: 7% -> 11%).
func TestFig6aShape(t *testing.T) {
	series := Fig6a([]int{50, 5, 1})
	hdfs, bsfs := ys(series[0]), ys(series[1])
	var gains []float64
	for i := range hdfs {
		if bsfs[i] >= hdfs[i] {
			t.Errorf("point %d: BSFS %.1fs should beat HDFS %.1fs", i, bsfs[i], hdfs[i])
		}
		gains = append(gains, (hdfs[i]-bsfs[i])/hdfs[i])
	}
	if len(gains) == 3 && gains[2] <= gains[0] {
		t.Errorf("relative gain should grow as mappers decrease: %v", gains)
	}
	if gains[0] < 0.02 || gains[0] > 0.25 {
		t.Errorf("gain at 50 mappers should be modest (paper: 7%%), got %.0f%%", gains[0]*100)
	}
}

// TestFig6bShape: distributed grep completes much faster on BSFS
// (paper: 35%), the gap widening with input size (paper: to 38%), and
// both curves growing with input size.
func TestFig6bShape(t *testing.T) {
	series := Fig6b([]float64{6.4, 12.8})
	hdfs, bsfs := ys(series[0]), ys(series[1])
	gain0 := (hdfs[0] - bsfs[0]) / hdfs[0]
	gain1 := (hdfs[1] - bsfs[1]) / hdfs[1]
	if gain0 < 0.15 {
		t.Errorf("gain at 6.4 GB should be large (paper: 35%%), got %.0f%%", gain0*100)
	}
	if gain1 <= gain0 {
		t.Errorf("gain should widen with input size: %.0f%% -> %.0f%%", gain0*100, gain1*100)
	}
	if hdfs[1] <= hdfs[0] || bsfs[1] <= bsfs[0] {
		t.Errorf("both curves should grow with input size: hdfs %v bsfs %v", hdfs, bsfs)
	}
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return
}
