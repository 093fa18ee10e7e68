package main

import (
	"math"
	"testing"
)

func TestQuantilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4) and
	// statistics.median(xs).
	cases := []struct {
		xs     []float64
		q      [3]float64
		median float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}, 1.5},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}, 2},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}, 2.5},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}, 3},
		{[]float64{1, 1, 1, 1, 2, 10, 10, 10, 11, 12}, [3]float64{1, 6, 10.25}, 6},
		{[]float64{0.5, 0.25, 0.125, 1, 2, 4, 8}, [3]float64{0.25, 1, 4}, 1},
	}
	for _, c := range cases {
		q := quantiles(c.xs, 4)
		for i := range c.q {
			if math.Abs(q[i]-c.q[i]) > 1e-12 {
				t.Errorf("quantiles(%v) = %v, want %v", c.xs, q, c.q)
				break
			}
		}
		if m := median(c.xs); m != c.median {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.median)
		}
		if got, want := iqr(c.xs), c.q[2]-c.q[0]; math.Abs(got-want) > 1e-12 {
			t.Errorf("iqr(%v) = %v, want %v", c.xs, got, want)
		}
	}
	if q := quantiles([]float64{7}, 4); len(q) != 3 || q[0] != 7 || q[2] != 7 {
		t.Errorf("quantiles of one value = %v, want it at every cut", q)
	}
	if q := quantiles(nil, 4); q != nil {
		t.Errorf("quantiles of nothing = %v, want nil", q)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(iqr(nil)) {
		t.Error("median and iqr of an empty sample must be NaN")
	}
}

func TestPercentileSmallSamples(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{1, 1}, {20, 1}, {21, 2}, {50, 3}, {60, 3}, {61, 4}, {90, 5}, {99, 5}, {100, 5},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := percentile([]float64{42}, 99); got != 42 {
		t.Errorf("p99 of one sample = %v, want the sample", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample must be NaN")
	}
	// Ties: every percentile of a constant sample is the constant.
	if got := percentile([]float64{2, 2, 2, 2}, 90); got != 2 {
		t.Errorf("p90 of a constant sample = %v", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {99, 50}, {100, 90}, {200, 90}, {999, 90}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := beyond(100, 90); got != 10 {
		t.Errorf("beyond(100, 90) = %d, want 10", got)
	}
}
