package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantiles returns the n-1 cut points dividing xs into n groups, with the
// same "exclusive" interpolation as Python's statistics.quantiles, so the
// spreads this program reports are the ones a Python reader computes from
// the same values. A single value is every cut point; an empty sample has
// none.
func quantiles(xs []float64, n int) []float64 {
	if n < 2 || len(xs) == 0 {
		return nil
	}
	ld := len(xs)
	out := make([]float64, n-1)
	if ld == 1 {
		for i := range out {
			out[i] = xs[0]
		}
		return out
	}
	s := sorted(xs)
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return out
}

// iqr returns the distance between the first and third quartiles.
func iqr(xs []float64) float64 {
	q := quantiles(xs, 4)
	if q == nil {
		return math.NaN()
	}
	return q[2] - q[0]
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100): the
// smallest sample with at least p% of the sample at or below it. Latency
// percentiles are always an observed value, never an interpolation.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := nearestRank(len(s), p)
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// beyond returns how many samples of an n-sample set lie above its p-th
// percentile under the nearest-rank rule.
func beyond(n int, p float64) int {
	return n - max(nearestRank(n, p), 1)
}

// nearestRank is the 1-based rank of the p-th percentile of n samples,
// ceil(p/100·n), computed so that float rounding of p/100·n (99.9% of
// 10000 is 9990.000000000002) cannot push it one rank up.
func nearestRank(n int, p float64) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// tailPercentile returns the highest of the usual reporting percentiles
// with at least ten samples beyond it, or 50 when the sample is too small
// for any tail.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 90} {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// mean returns the arithmetic mean of xs, or NaN for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
