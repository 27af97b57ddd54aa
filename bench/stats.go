package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile. A p99
// therefore needs at least 1000 samples, a p90 at least 100.
const minBeyond = 10

// rank is the 1-based nearest-rank position of the p-quantile among n
// samples: ceil(p·n), clamped to [1, n].
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// supported reports whether n samples support reporting the p-quantile: at
// least minBeyond samples lie above its nearest rank.
func supported(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minBeyond
}

// percentile returns the nearest-rank p-quantile of xs (0 for an empty set)
// and whether the sample supports it. xs is not modified.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1], supported(len(s), p)
}

// median is the nearest-rank median; it is what every per-run timing that is
// repeated a few times reports.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first quartile, median and third quartile of xs by
// the rule Python's statistics.quantiles(xs, n=4) applies (the "exclusive"
// method), so spreads computed here match ones computed with Python. It
// needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}
