package util

import "math"

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ManhattanDistance computes the paper's load-balance metric
// (Section V-D): the L1 distance between a storage layout vector
// (blocks stored per node) and the ideally balanced vector where every
// node stores total/len(counts) blocks. This is the quantity plotted in
// Figure 3(b) as the "degree of unbalance".
func ManhattanDistance(counts []int) float64 {
	if len(counts) == 0 {
		return 0
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	ideal := float64(total) / float64(len(counts))
	var d float64
	for _, c := range counts {
		d += math.Abs(float64(c) - ideal)
	}
	return d
}
