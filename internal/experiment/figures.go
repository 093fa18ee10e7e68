package experiment

import (
	"context"
	"fmt"

	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/metrics"
)

// SourceTrace regenerates Figure 5: one sample path of the eq. (13) solar
// source, one sample per time unit over the horizon.
func SourceTrace(seed uint64, horizon int) *metrics.Series {
	if horizon <= 0 {
		panic("experiment: non-positive horizon")
	}
	src := energy.NewSolarModel(seed)
	s := metrics.NewSeries(0, 1, horizon)
	for k := 0; k < horizon; k++ {
		s.Values[k] = src.PowerAt(float64(k))
	}
	return s
}

// RemainingEnergyResult holds the Figures 6–7 curves: for each policy, the
// normalized remaining energy EC(t)/C averaged with equal weight over the
// capacity sweep and the replications (§5.2).
type RemainingEnergyResult struct {
	Spec   Spec
	Curves map[string]*metrics.Series
}

// repEnergyCurves folds one replication's (capacity, policy) block of
// energy series — block[ci*np+pi], covering the full capacity sweep — into
// np normalized partial curves: curve[pi][k] = Σ_ci EC(t_k)/C_ci, summed
// in capacity order.
func repEnergyCurves(s Spec, np int, block []*metrics.Series) [][]float64 {
	n := int(s.Horizon) + 1
	curves := make([][]float64, np)
	for pi := range curves {
		curves[pi] = make([]float64, n)
	}
	for ci, capacity := range s.Capacities {
		for pi := 0; pi < np; pi++ {
			dst := curves[pi]
			for k, v := range block[ci*np+pi].Values {
				dst[k] += v / capacity
			}
		}
	}
	return curves
}

// aggregateRemaining folds per-replication partial curves (repEnergyCurves
// output, indexed by replication) into the Figures 6–7 averages.
// Replications are folded in r order so the result is deterministic.
// Replications not marked present are skipped (curves[r] may be nil) and
// the average runs over the covered replications only.
func aggregateRemaining(s Spec, policyNames []string, curves [][][]float64, present []bool) (*RemainingEnergyResult, error) {
	n := int(s.Horizon) + 1
	np := len(policyNames)
	acc := make(map[string]*metrics.Series, np)
	for _, name := range policyNames {
		acc[name] = metrics.NewSeries(0, 1, n)
	}
	completed := 0
	for r := 0; r < s.Replications; r++ {
		if !present[r] {
			continue
		}
		completed++
		for pi, name := range policyNames {
			dst := acc[name].Values
			for k, v := range curves[r][pi] {
				dst[k] += v
			}
		}
	}
	if completed == 0 {
		return nil, fmt.Errorf("experiment: no replications covered")
	}
	div := float64(completed * len(s.Capacities))
	for _, sr := range acc {
		for k := range sr.Values {
			sr.Values[k] /= div
		}
	}
	return &RemainingEnergyResult{Spec: s, Curves: acc}, nil
}

// MissRateResult holds a Figures 8–9 sweep: per policy, the deadline miss
// rate at each storage capacity (jobs missed / jobs released, pooled over
// replications).
type MissRateResult struct {
	Spec       Spec
	Capacities []float64
	// Rates[policy][i] is the miss rate at Capacities[i].
	Rates map[string][]float64
	// Stats carries the pooled tallies for confidence reporting.
	Stats map[string][]metrics.MissStats
	// StdErr[policy][i] is the standard error of the per-replication
	// miss rate — the error bar of the pooled point.
	StdErr map[string][]float64
}

// NormalizedCapacity returns capacity i divided by the largest capacity in
// the sweep — the figures' x axis.
func (m *MissRateResult) NormalizedCapacity(i int) float64 {
	maxC := m.Capacities[len(m.Capacities)-1]
	return m.Capacities[i] / maxC
}

// MissRateSweep regenerates Figure 8 (U = 0.4) or Figure 9 (U = 0.8).
// Simulations run in parallel across Parallelism workers; the pooled
// tallies are merged in deterministic order.
func MissRateSweep(s Spec, policyNames []string) (*MissRateResult, error) {
	m, err := RunSweep(context.Background(), "missrate", s, policyNames)
	if err != nil {
		return nil, err
	}
	return m.MissRate, nil
}

// aggregateMissRate pools per-run tallies — slot layout (r*nc+ci)*np+pi
// over the sweep's nc points (the capacities of Figures 8–9, or a
// sensitivity sweep's parameter values) — into a MissRateResult whose
// Capacities are those points. The fold order (replication outermost,
// policy innermost) fixes the Welford accumulation sequence, so the same
// tallies always produce bit-identical standard errors; MergeShards runs
// this same fold over scattered shard tallies. When present is non-nil,
// slots marked absent are skipped and the pooled rates cover the remaining
// cells only; present == nil means full coverage.
func aggregateMissRate(s Spec, points []float64, policyNames []string, tallies []metrics.MissStats, present []bool) *MissRateResult {
	nc, np := len(points), len(policyNames)
	out := &MissRateResult{
		Spec:       s,
		Capacities: append([]float64(nil), points...),
		Rates:      make(map[string][]float64, np),
		Stats:      make(map[string][]metrics.MissStats, np),
		StdErr:     make(map[string][]float64, np),
	}
	acc := make(map[string][]metrics.Welford, np)
	for _, name := range policyNames {
		out.Rates[name] = make([]float64, nc)
		out.Stats[name] = make([]metrics.MissStats, nc)
		out.StdErr[name] = make([]float64, nc)
		acc[name] = make([]metrics.Welford, nc)
	}
	for r := 0; r < s.Replications; r++ {
		for ci := 0; ci < nc; ci++ {
			for pi, name := range policyNames {
				slot := (r*nc+ci)*np + pi
				if present != nil && !present[slot] {
					continue
				}
				tally := tallies[slot]
				out.Stats[name][ci].Add(tally)
				acc[name][ci].Add(tally.Rate())
			}
		}
	}
	for _, name := range policyNames {
		for ci := 0; ci < nc; ci++ {
			out.Rates[name][ci] = out.Stats[name][ci].Rate()
			out.StdErr[name][ci] = acc[name][ci].StdErr()
		}
	}
	return out
}
