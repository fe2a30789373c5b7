package main

import (
	"math"
	"slices"
)

// median of xs (mean of the middle two for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rank is the nearest-rank position (1-based) of the p-th percentile among n
// samples. The epsilon keeps 0.9*100 = 90.00000000000001 from rounding up.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the p-th percentile (0 < p < 100) of the sorted sample
// by the nearest-rank rule.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// tailLadder are the percentiles a tail may be reported at.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// tailPercentile picks the percentile a tail metric named for `want` is
// reported at: the highest rung of tailLadder, no higher than want, that
// still has at least ten samples beyond it. At the benchmark's full sizes
// that is p99 itself; a tiny run falls back to p90 or the median rather than
// report a percentile one or two samples decide.
func tailPercentile(n int, want float64) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if p <= want && n > 0 && n-rank(n, p) >= 10 {
			best = p
		}
	}
	return best
}
