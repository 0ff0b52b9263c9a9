package main

import (
	"math"
	"testing"
)

func TestMedianAndQuartiles(t *testing.T) {
	// Expected quartiles from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs             []float64
		med, q1, q3    float64
		spreadOfMedian float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5, 2.75, 8.25, 5.5 / 5.5},
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75, 2.5 / 2.5},
		{[]float64{3, 1, 2}, 2, 1, 3, 1},
		{[]float64{7}, 7, 7, 7, 0},
	} {
		q1, q3 := quartiles(c.xs)
		if median(c.xs) != c.med || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%v: median %v quartiles %v %v, want %v %v %v", c.xs, median(c.xs), q1, q3, c.med, c.q1, c.q3)
		}
		if s := spread(c.xs); math.Abs(s-c.spreadOfMedian) > 1e-12 {
			t.Errorf("%v: spread %v, want %v", c.xs, s, c.spreadOfMedian)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for p, want := range map[float64]float64{0: 1, 0.5: 3, 0.9: 4.6, 1: 5} {
		if got := percentile(xs, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{296, 0.95, true}, // the sweep's simulations
		{1000, 0.99, true},
		{10000, 0.999, true},
		{100, 0.9, true},
		{40, 0.75, true},
		{20, 0.5, true},
		{19, 0, false},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v %v, want %v %v", c.n, p, ok, c.want, c.ok)
		}
	}
}
