package experiment

import (
	"context"
	"fmt"
	"math"

	"github.com/eadvfs/eadvfs/internal/metrics"
)

// MinCapacityResult holds a Table 1 reproduction: for each utilization,
// the mean minimum zero-miss storage capacity under each policy and the
// paper's headline ratio C_min,LSA / C_min,EA-DVFS.
type MinCapacityResult struct {
	Utilizations []float64
	// Mean[policy][i] is the mean C_min at Utilizations[i].
	Mean map[string][]float64
	// Ratio[i] is Mean["lsa"][i] / Mean["ea-dvfs"][i] when both policies
	// were requested in that order; more generally first/second.
	Ratio []float64
	// RatioErr is the standard error of the per-replication ratio.
	RatioErr []float64
	// Skipped counts replications where no capacity in [lo, hi] achieved
	// zero misses (reported, never silently dropped).
	Skipped int
}

// Default Table 1 search bounds: start at MinCapLo, grow geometrically to
// at most MinCapMaxHi (far above any workload's need), bisect to absolute
// resolution MinCapTol. Exported so benchmarks and tests probe exactly the
// search MinCapacity runs.
const (
	MinCapLo    = 1.0
	MinCapMaxHi = 1 << 20
	MinCapTol   = 1.0
)

// MinCapacitySearcher finds, by bisection, the smallest storage capacity
// for which a policy finishes every job of one replication on time ("the
// threshold capacity to maintain zero deadline miss rate", §5.4).
//
// Deadline misses are not perfectly monotone in capacity (a larger initial
// store shifts every lazy start time), but they are monotone in the large;
// bisection returns the smallest zero-miss point of the monotone envelope,
// which is the quantity the paper sweeps.
//
// The search is warm: one amortized Runner (shared solar fork, processor
// and predictor resolution) serves every probe of every search over the
// same (spec, replication) pair, and each infeasible probe exits at its
// first deadline miss instead of simulating to the horizon.
//
// Warm search returns exactly what a cold search — one full RunOne per
// probe, kept as the test oracle — returns. The argument
// (DESIGN.md §14): the probe sequence — geometric growth doubling from lo,
// then bisection on [hi/2, hi] — is fully determined by each probe's
// zero-miss classification, and both mechanisms above preserve that
// classification: the early exit stops only after a miss is tallied
// (Missed > 0 iff the full run misses), and fork reuse reproduces each
// run bit for bit. No probe is ever skipped on monotonicity grounds,
// because misses are not perfectly monotone in capacity: confirming the
// envelope's smallest zero-miss point requires observing every dyadic
// predecessor miss, and the searcher does. Nothing is memoized: when
// maxHi/lo is a power of two (as with MinCapLo and MinCapMaxHi), one
// search never probes a capacity twice — doubling visits each lo·2^k once
// and bisection probes only midpoints strictly inside (hi/2, hi) — and a
// repeated Search re-simulates.
type MinCapacitySearcher struct {
	runner *Runner
	pfs    []PolicyFactory
}

// NewMinCapacitySearcher prepares a warm searcher for one replication.
// pfs are the policy factories the searches select among by index.
func NewMinCapacitySearcher(s Spec, rep Replication, pfs []PolicyFactory) (*MinCapacitySearcher, error) {
	r, err := NewRunner(s, rep)
	if err != nil {
		return nil, err
	}
	return &MinCapacitySearcher{runner: r, pfs: pfs}, nil
}

// Search runs the capacity search for policy index pi over [lo, maxHi]:
// the hi bound grows geometrically from lo until it achieves zero misses
// (ok is false if even maxHi cannot), then bisection narrows it to the
// absolute resolution tol.
func (m *MinCapacitySearcher) Search(pi int, lo, maxHi, tol float64) (float64, bool, error) {
	if lo <= 0 || maxHi <= lo || tol <= 0 {
		return 0, false, fmt.Errorf("experiment: bad search bounds [%v, %v] tol %v", lo, maxHi, tol)
	}
	if pi < 0 || pi >= len(m.pfs) {
		return 0, false, fmt.Errorf("experiment: policy index %d outside [0, %d)", pi, len(m.pfs))
	}
	missed := func(c float64) (bool, error) {
		res, err := m.runner.RunCtx(nil, c, m.pfs[pi], false, true)
		if err != nil {
			return false, err
		}
		return res.Miss.Missed > 0, nil
	}
	hi := lo
	for {
		m, err := missed(hi)
		if err != nil {
			return 0, false, err
		}
		if !m {
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
		miss, err := missed(mid)
		if err != nil {
			return 0, false, err
		}
		if !miss {
			hi = mid
		} else {
			loBound = mid
		}
	}
	return hi, true, nil
}

// MinCapacity regenerates Table 1: for each utilization, the ratio of the
// minimum zero-miss capacities of the first policy to the second
// (paper: LSA over EA-DVFS), averaged over replications.
//
// The sweep is one grid over the utilizations. A cell is one
// replication's pair of warm searches at one utilization: the task set
// is re-derived at that point, with the policies resolved there too
// (static-dvfs sizes its operating point from the utilization), and the
// replication's prepared solar master is adopted, so each replication's
// trace is realized once for every utilization.
func MinCapacity(s Spec, utils []float64, policyNames []string) (*MinCapacityResult, error) {
	if len(policyNames) != 2 {
		return nil, fmt.Errorf("experiment: Table 1 compares exactly two policies, got %d", len(policyNames))
	}
	if len(utils) == 0 {
		return nil, fmt.Errorf("experiment: no utilizations")
	}
	specs := make([]Spec, len(utils))
	factories := make([][]PolicyFactory, len(utils))
	for ui, u := range utils {
		specs[ui] = s
		specs[ui].Utilization = u
		if err := specs[ui].Validate(); err != nil {
			return nil, err
		}
		var err error
		if factories[ui], err = specs[ui].Policies(policyNames); err != nil {
			return nil, err
		}
	}
	type pair struct {
		ca, cb float64
		ok     bool
	}
	g := grid{spec: specs[0], paired: true, hi: s.Replications, points: len(utils)}
	pairs, _, agg, err := runGrid(context.Background(), g, func(_ int, rep Replication, ui int, _ PolicyFactory) (pair, error) {
		at, err := Replicate(specs[ui], rep.Index)
		if err != nil {
			return pair{}, err
		}
		at.AdoptSource(rep)
		// Warm-start searcher: one solar fork per cell, first-miss
		// early exit on every infeasible probe. Returns exactly the cold
		// search's capacities (see MinCapacitySearcher).
		search, err := NewMinCapacitySearcher(specs[ui], at, factories[ui])
		if err != nil {
			return pair{}, err
		}
		ca, okA, err := search.Search(0, MinCapLo, MinCapMaxHi, MinCapTol)
		if err != nil {
			return pair{}, err
		}
		cb, okB, err := search.Search(1, MinCapLo, MinCapMaxHi, MinCapTol)
		if err != nil {
			return pair{}, err
		}
		return pair{ca: ca, cb: cb, ok: okA && okB && cb > 0}, nil
	})
	defer agg.End()
	if err != nil {
		return nil, err
	}

	out := &MinCapacityResult{
		Utilizations: append([]float64(nil), utils...),
		Mean:         map[string][]float64{policyNames[0]: make([]float64, len(utils)), policyNames[1]: make([]float64, len(utils))},
		Ratio:        make([]float64, len(utils)),
		RatioErr:     make([]float64, len(utils)),
	}
	for ui := range utils {
		var meanA, meanB, ratio metrics.Welford
		for r := 0; r < s.Replications; r++ {
			p := pairs[r*len(utils)+ui]
			if !p.ok {
				out.Skipped++
				continue
			}
			meanA.Add(p.ca)
			meanB.Add(p.cb)
			ratio.Add(p.ca / p.cb)
		}
		out.Mean[policyNames[0]][ui] = meanA.Mean()
		out.Mean[policyNames[1]][ui] = meanB.Mean()
		out.Ratio[ui] = ratio.Mean()
		out.RatioErr[ui] = ratio.StdErr()
	}
	return out, nil
}
