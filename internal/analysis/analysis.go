// Package analysis provides closed-form feasibility checks for
// energy-harvesting real-time workloads: classic EDF schedulability (the
// time dimension), long-run energy demand against the source's mean power
// (the energy dimension), and a maximum-deficit bound on the storage
// capacity needed to ride through harvest troughs. The experiment
// harness measures these quantities by simulation; this package predicts
// them, and the tests cross-check the two.
package analysis

import (
	"errors"
	"fmt"
	"math"

	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/task"
)

// Utilization returns Σ w_i/p_i (the paper's eq. 14).
func Utilization(tasks []task.Task) float64 {
	return task.SetUtilization(tasks)
}

// Density returns Σ w_i / min(d_i, p_i) — the standard sufficient load
// metric for constrained-deadline task sets.
func Density(tasks []task.Task) float64 {
	sum := 0.0
	for _, t := range tasks {
		sum += t.WCET / math.Min(t.Deadline, t.Period)
	}
	return sum
}

// EDFSchedulable reports whether the set is schedulable by preemptive EDF
// at full speed with unlimited energy. For implicit deadlines
// (d_i = p_i) the utilization bound U <= 1 is exact; otherwise the
// density bound is used, which is sufficient but not necessary.
func EDFSchedulable(tasks []task.Task) bool {
	implicit := true
	for _, t := range tasks {
		if t.Deadline != t.Period {
			implicit = false
			break
		}
	}
	if implicit {
		return Utilization(tasks) <= 1+1e-12
	}
	return Density(tasks) <= 1+1e-12
}

// DemandFullSpeed returns the long-run average power a full-speed-only
// policy (EDF, LSA) needs: U · P_max. If this exceeds the source's mean
// power, misses are inevitable at any storage size.
func DemandFullSpeed(tasks []task.Task, proc *cpu.Processor) float64 {
	return Utilization(tasks) * proc.MaxPower()
}

// DemandMinFeasible returns the long-run average power of the most
// stretched schedule any DVFS policy could sustain: each task runs at its
// own minimum feasible operating point (ineq. 6 with the full window),
// ignoring interference. It lower-bounds the demand of EA-DVFS and any
// other stretching policy.
func DemandMinFeasible(tasks []task.Task, proc *cpu.Processor) float64 {
	demand := 0.0
	for _, t := range tasks {
		level, ok := proc.MinLevelFor(t.WCET, t.Deadline)
		if !ok {
			level = proc.MaxLevel()
		}
		// Energy per period: P_n · w/S_n; divide by the period for power.
		demand += proc.ExecEnergy(t.WCET, level) / t.Period
	}
	return demand
}

// Sustainability classifies a (demand, source) pair.
type Sustainability struct {
	Demand     float64
	MeanSupply float64
	// Margin is (supply − demand) / supply: positive means the workload
	// is sustainable on average, negative the long-run miss floor.
	Margin float64
	// MissFloor estimates the asymptotic miss rate when demand exceeds
	// supply: the fraction of work that can never be powered.
	MissFloor float64
}

// Sustain evaluates a long-run demand against a source.
func Sustain(demand float64, src energy.Source) Sustainability {
	supply := src.MeanPower()
	s := Sustainability{Demand: demand, MeanSupply: supply}
	if supply > 0 {
		s.Margin = (supply - demand) / supply
	} else if demand > 0 {
		s.Margin = math.Inf(-1)
	}
	if demand > supply && demand > 0 {
		s.MissFloor = (demand - supply) / demand
	}
	return s
}

// MaxDeficit computes the ride-through storage bound: the largest energy
// shortfall of the source against a constant demand over any sub-interval
// of [0, horizon), sampled per unit. A store of at least this size,
// initially full, can serve the constant demand throughout the horizon —
// the classic buffer-sizing bound, and an analytic sanity check on the
// simulated C_min of Table 1.
func MaxDeficit(src energy.Source, demand, horizon float64) (float64, error) {
	if demand < 0 || math.IsNaN(demand) {
		return 0, fmt.Errorf("analysis: invalid demand %v", demand)
	}
	if horizon <= 0 || math.IsInf(horizon, 0) {
		return 0, errors.New("analysis: invalid horizon")
	}
	// deficit(t) = demand·t − E(0,t); the answer is
	// max_t (deficit(t) − min_{s<=t} deficit(s)).
	var (
		cum      float64 // harvested energy so far
		deficit  float64
		minSoFar float64
		maxGap   float64
	)
	n := int(horizon)
	for k := 0; k < n; k++ {
		cum += src.PowerAt(float64(k))
		deficit = float64(demand*float64(k+1)) - cum
		if gap := deficit - minSoFar; gap > maxGap {
			maxGap = gap
		}
		if deficit < minSoFar {
			minSoFar = deficit
		}
	}
	return maxGap, nil
}

// Report bundles the full analysis of a workload on a platform.
type Report struct {
	Utilization     float64
	Density         float64
	EDFSchedulable  bool
	FullSpeed       Sustainability
	MinFeasible     Sustainability
	RideThroughFull float64 // MaxDeficit at the full-speed demand
	RideThroughMin  float64 // MaxDeficit at the min-feasible demand
}

// Analyze produces a Report for the workload on the processor and source,
// evaluating deficits over the given horizon.
func Analyze(tasks []task.Task, proc *cpu.Processor, src energy.Source, horizon float64) (Report, error) {
	if len(tasks) == 0 {
		return Report{}, errors.New("analysis: no tasks")
	}
	for _, t := range tasks {
		if err := t.Validate(); err != nil {
			return Report{}, err
		}
	}
	r := Report{
		Utilization:    Utilization(tasks),
		Density:        Density(tasks),
		EDFSchedulable: EDFSchedulable(tasks),
	}
	dFull := DemandFullSpeed(tasks, proc)
	dMin := DemandMinFeasible(tasks, proc)
	r.FullSpeed = Sustain(dFull, src)
	r.MinFeasible = Sustain(dMin, src)
	var err error
	if r.RideThroughFull, err = MaxDeficit(src, dFull, horizon); err != nil {
		return Report{}, err
	}
	if r.RideThroughMin, err = MaxDeficit(src, dMin, horizon); err != nil {
		return Report{}, err
	}
	return r, nil
}
