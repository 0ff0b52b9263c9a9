package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs, or the mean of the two middle
// values for an even count (0 for an empty slice).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles of xs by the same
// rule as Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), so spreads computed here match those computed over the
// benchmark's printed results. One value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the quartile distance of xs as a share of its median — the
// run-to-run noise measure every bound in BENCHMARK.json is set
// against.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// percentile returns the p-quantile (0..1) of xs by linear
// interpolation between closest ranks.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

// tailPercentiles are the percentiles a timing may be reported at,
// highest first.
var tailPercentiles = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tailPercentile returns the highest of tailPercentiles that leaves at
// least ten of n samples beyond it, and false when n is too small for
// any of them.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p) >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}
