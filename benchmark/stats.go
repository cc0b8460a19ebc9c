package main

import (
	"math"
	"sort"
)

// quartiles returns the three cut points of vs exactly as Python's
// statistics.quantiles(vs, n=4) does (the "exclusive" method), because
// the driver's acceptance check is written against that function. One
// value yields itself three times.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the middle of vs (the second quartile cut), 0 for no
// samples.
func median(vs []float64) float64 {
	_, q2, _ := quartiles(vs)
	return q2
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure the contract bounds.
func spread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// tail picks the highest order statistic that still has ten samples
// beyond it (the choosing-metrics rule for a percentile a sample can
// support) and says which percentile that is. Fewer than 21 samples
// support nothing past the median, so the median is returned.
func tail(vs []float64) (value, percentile float64) {
	n := len(vs)
	if n == 0 {
		return 0, 0
	}
	if n < 21 {
		return median(vs), 50
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := n - 11
	return s[i], 100 * float64(i+1) / float64(n)
}
