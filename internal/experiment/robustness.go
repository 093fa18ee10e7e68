package experiment

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/eadvfs/eadvfs/internal/fault"
	"github.com/eadvfs/eadvfs/internal/metrics"
	"github.com/eadvfs/eadvfs/internal/rng"
)

// RobustnessSpec drives a fault-intensity sweep: each policy is simulated
// at every intensity of the mixed-fault model (fault.Spec), at a single
// storage capacity. Within a replication every policy and every intensity
// sees the same task set, solar sample path and fault seed — the
// paired-comparison discipline of §5.2 extended to the fault dimension,
// so miss-rate differences are attributable to the policies, not to
// fault-schedule luck.
type RobustnessSpec struct {
	Base        Spec      // workload parameters; Capacities is ignored
	Policies    []string  // policies to compare (see Policy)
	Intensities []float64 // fault intensities in [0, 1], e.g. 0, 0.25, …, 1
	FaultSeed   uint64    // master fault seed (default 1)
	Capacity    float64   // storage capacity for every run
}

// Validate checks the sweep parameters.
func (rs RobustnessSpec) Validate() error {
	base := rs.Base
	base.Capacities = []float64{rs.Capacity} // Capacity stands in for the sweep
	if err := base.Validate(); err != nil {
		return err
	}
	if len(rs.Policies) == 0 {
		return fmt.Errorf("experiment: robustness sweep with no policies")
	}
	if len(rs.Intensities) == 0 {
		return fmt.Errorf("experiment: robustness sweep with no intensities")
	}
	for _, x := range rs.Intensities {
		if x < 0 || x > 1 || math.IsNaN(x) {
			return fmt.Errorf("experiment: fault intensity %v outside [0, 1]", x)
		}
	}
	return nil
}

// faultSeed derives the fault seed of replication r from the master
// FaultSeed, independent of the workload seeds.
func (rs RobustnessSpec) faultSeed(r int) uint64 {
	seed := rs.FaultSeed
	if seed == 0 {
		seed = 1
	}
	return rng.New(seed).Child(uint64(r)).Uint64()
}

// RobustnessResult holds the sweep outcome per (policy, intensity) point:
// the pooled deadline-miss rate over the replications that completed, the
// aggregated degradation counters, and how many replications were lost to
// run errors (the sweep aggregates partial results instead of discarding
// everything on the first failure).
type RobustnessResult struct {
	Spec        RobustnessSpec
	Intensities []float64
	// MissRates[policy][i] is the pooled miss rate at Intensities[i].
	MissRates map[string][]float64
	// Stats carries the pooled miss tallies behind MissRates.
	Stats map[string][]metrics.MissStats
	// Degradation[policy][i] sums the degradation counters over completed
	// replications.
	Degradation map[string][]metrics.Degradation
	// Failed[policy][i] counts replications that errored at this point.
	Failed map[string][]int

	errs []string // stable descriptions of the per-run errors
}

// Errs returns the per-point run errors of the sweep, keyed
// "policy@intensity", in deterministic key order. Empty for a clean sweep.
func (r *RobustnessResult) Errs() []string { return r.errs }

// RobustnessSweep runs the fault-intensity sweep. One failing replication
// does not abort the sweep: its point aggregates the surviving
// replications and the failure is reported in Failed (and Errs). An error
// is returned only for invalid specs or when every run of the sweep
// failed.
func RobustnessSweep(rs RobustnessSpec) (*RobustnessResult, error) {
	if err := rs.Validate(); err != nil {
		return nil, err
	}
	base := rs.Base
	base.Capacities = []float64{rs.Capacity}
	ni, np := len(rs.Intensities), len(rs.Policies)
	degs := make([]metrics.Degradation, base.Replications*ni*np)
	ctx := context.Background()
	g := grid{spec: base, policies: rs.Policies, hi: base.Replications, points: ni, keepGoing: true}
	tallies, errs, agg, err := runGrid(ctx, g, func(slot int, rep Replication, ii int, pf PolicyFactory) (metrics.MissStats, error) {
		runner, err := newRunner(base, rep)
		if err != nil {
			return metrics.MissStats{}, err
		}
		cfg := runner.config(ctx, rs.Capacity, pf, false)
		cfg.Faults = fault.Spec{Seed: rs.faultSeed(rep.Index), Intensity: rs.Intensities[ii]}
		res, err := runner.run(cfg)
		if err == nil {
			degs[slot] = res.Degradation
		}
		return missOf(res, err)
	})
	defer agg.End()
	if err != nil {
		return nil, err
	}
	if len(errs) == len(tallies) {
		return nil, fmt.Errorf("experiment: every robustness run failed; first: %w", lowestSlotError(errs))
	}

	// Failed cells are absent from the pooled tallies and counted per
	// point.
	present := make([]bool, len(tallies))
	for slot := range present {
		present[slot] = errs[slot] == nil
	}
	pooled := aggregateMissRate(base, rs.Intensities, rs.Policies, tallies, present)
	out := &RobustnessResult{
		Spec:        rs,
		Intensities: pooled.Capacities,
		MissRates:   pooled.Rates,
		Stats:       pooled.Stats,
		Degradation: make(map[string][]metrics.Degradation, np),
		Failed:      make(map[string][]int, np),
		errs:        describeErrs(errs, rs, np, ni),
	}
	for _, name := range rs.Policies {
		out.Degradation[name] = make([]metrics.Degradation, ni)
		out.Failed[name] = make([]int, ni)
	}
	for slot, d := range degs {
		name, ii := rs.Policies[slot%np], slot/np%ni
		if present[slot] {
			out.Degradation[name][ii].Add(d)
		} else {
			out.Failed[name][ii]++
		}
	}
	return out, nil
}

func describeErrs(errs map[int]error, rs RobustnessSpec, np, ni int) []string {
	if len(errs) == 0 {
		return nil
	}
	slots := make([]int, 0, len(errs))
	for s := range errs {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	out := make([]string, 0, len(slots))
	for _, s := range slots {
		pi := s % np
		ii := (s / np) % ni
		r := s / (np * ni)
		out = append(out, fmt.Sprintf("%s@%g rep %d: %v", rs.Policies[pi], rs.Intensities[ii], r, errs[s]))
	}
	return out
}

// Summary renders the sweep as a stable plain-text table: the same spec
// and seeds produce a byte-identical summary on every invocation and at
// any Parallelism, which is what the reproducibility tests (and bug
// reports) diff.
func (r *RobustnessResult) Summary() string {
	var b strings.Builder
	rs := r.Spec
	fmt.Fprintf(&b, "robustness sweep: U=%g capacity=%g reps=%d seed=%d faultseed=%d predictor=%s\n",
		rs.Base.Utilization, rs.Capacity, rs.Base.Replications, rs.Base.Seed, rs.FaultSeed, predictorName(rs.Base.Predictor))
	fmt.Fprintf(&b, "%-16s %9s %9s %9s %8s %8s %7s %7s %6s %6s\n",
		"policy", "intensity", "missrate", "overruns", "clamps", "stale", "fadeE", "spikeE", "downT", "failed")
	for _, name := range rs.Policies {
		for ii, x := range r.Intensities {
			d := r.Degradation[name][ii]
			fmt.Fprintf(&b, "%-16s %9.3g %9.6f %9d %8d %8d %7.4g %7.4g %6.4g %6d\n",
				name, x, r.MissRates[name][ii],
				d.Overruns, d.DVFSClamps, d.StaleForecasts,
				d.FadeEnergy, d.LeakSpikeEnergy, d.SourceFaultTime,
				r.Failed[name][ii])
		}
	}
	for _, e := range r.errs {
		fmt.Fprintf(&b, "error: %s\n", e)
	}
	return b.String()
}

func predictorName(name string) string {
	if name == "" {
		return "ewma"
	}
	return name
}
