package experiment

import (
	"context"
	"fmt"
	"math"
)

// MinCapacitySearch finds, by bisection, the smallest storage capacity in
// [lo, hi] for which the given policy finishes every job of the
// replication on time ("the threshold capacity to maintain zero deadline
// miss rate", §5.4). The hi bound is grown geometrically until it achieves
// zero misses; ok is false if even maxHi cannot.
//
// Deadline misses are not perfectly monotone in capacity (a larger initial
// store shifts every lazy start time), but they are monotone in the large;
// bisection returns the smallest zero-miss point of the monotone envelope,
// which is the quantity the paper sweeps. tol is the absolute capacity
// resolution.
//
// This is the cold search — one full RunOne per probe, no early exit —
// kept as the oracle MinCapacitySearcher must reproduce exactly.
func MinCapacitySearch(s Spec, rep Replication, pf PolicyFactory, lo, maxHi, tol float64) (float64, bool, error) {
	if lo <= 0 || maxHi <= lo || tol <= 0 {
		return 0, false, fmt.Errorf("experiment: bad search bounds [%v, %v] tol %v", lo, maxHi, tol)
	}
	misses := func(c float64) (int, error) {
		res, err := RunOne(context.Background(), s, rep, c, pf, false)
		if err != nil {
			return 0, err
		}
		return res.Miss.Missed, nil
	}
	hi := lo
	for {
		m, err := misses(hi)
		if err != nil {
			return 0, false, err
		}
		if m == 0 {
			break
		}
		if hi >= maxHi {
			return 0, false, nil
		}
		hi = math.Min(hi*2, maxHi)
	}
	if hi == lo {
		return lo, true, nil
	}
	loBound := hi / 2 // last known miss (or lo)
	if loBound < lo {
		loBound = lo
	}
	for hi-loBound > tol {
		mid := (loBound + hi) / 2
		m, err := misses(mid)
		if err != nil {
			return 0, false, err
		}
		if m == 0 {
			hi = mid
		} else {
			loBound = mid
		}
	}
	return hi, true, nil
}
