package experiment

import (
	"context"
	"fmt"

	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/metrics"
	"github.com/eadvfs/eadvfs/internal/sim"
)

// SensitivityResult holds one parameter sweep: the miss rate of each
// policy at each sweep point, pooled over replications.
type SensitivityResult struct {
	Param  string
	Points []float64
	// Labels names the points when they are categorical (predictor
	// sweeps); nil for numeric sweeps.
	Labels   []string
	Policies []string
	// Rates[policy][i] is the pooled miss rate at Points[i].
	Rates map[string][]float64
}

// PointLabel returns the display label of point i.
func (r *SensitivityResult) PointLabel(i int) string {
	if r.Labels != nil {
		return r.Labels[i]
	}
	return fmt.Sprintf("%g", r.Points[i])
}

// sweepRunner executes one (replication, point) cell of a sensitivity
// sweep under policy pf. Cells express their point as a modified Spec
// (re-deriving the replication when the workload depends on it) or, for
// what a Spec cannot express, as a field set on the run's config.
type sweepRunner func(ctx context.Context, s Spec, rep Replication, point float64, pf PolicyFactory) (*sim.Result, error)

// runSweep runs a generic (replication × point × policy) sweep as one
// grid and pools it with the miss-rate fold.
func runSweep(s Spec, param string, points []float64, policyNames []string, run sweepRunner) (*SensitivityResult, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("experiment: empty %s sweep", param)
	}
	ctx := context.Background()
	g := grid{spec: s, policies: policyNames, hi: s.Replications, points: len(points)}
	tallies, _, agg, err := runGrid(ctx, g, func(_ int, rep Replication, p int, pf PolicyFactory) (metrics.MissStats, error) {
		return missOf(run(ctx, s, rep, points[p], pf))
	})
	defer agg.End()
	if err != nil {
		return nil, err
	}
	pooled := aggregateMissRate(s, points, policyNames, tallies, nil)
	return &SensitivityResult{
		Param:    param,
		Points:   pooled.Capacities,
		Policies: append([]string(nil), policyNames...),
		Rates:    pooled.Rates,
	}, nil
}

// defaultSweepCapacity is the storage size sensitivity sweeps run at: the
// steep region of Figure 8 where policy differences are visible.
const defaultSweepCapacity = 300

// LevelCountSweep measures the miss rate as the number of DVFS operating
// points grows (cubic power model at the spec's PMax). One point would be
// no DVFS at all; the XScale table has five. The sweep answers "how many
// levels does EA-DVFS actually need?".
func LevelCountSweep(s Spec, counts []float64, policyNames []string) (*SensitivityResult, error) {
	return runSweep(s, "dvfs-levels", counts, policyNames,
		func(ctx context.Context, s Spec, rep Replication, point float64, pf PolicyFactory) (*sim.Result, error) {
			n := int(point)
			if n < 1 {
				return nil, fmt.Errorf("experiment: level count %v < 1", point)
			}
			r, err := newRunner(s, rep)
			if err != nil {
				return nil, err
			}
			cfg := r.config(ctx, defaultSweepCapacity, pf, false)
			// cpu.Cubic's math.Pow(f, 3) takes Go's integer-exponent
			// path, which only multiplies: no Exp or Log rounding
			// reaches the operating points.
			if cfg.CPU, err = cpu.Cubic(n, 1000, s.PMax, s.PMax*0.02).WithSleepPreset(s.Sleep); err != nil {
				return nil, err
			}
			return r.run(cfg)
		})
}

// PMaxSweep measures the miss rate as the processor power scale varies —
// the calibration study behind DESIGN.md §5.3, runnable.
func PMaxSweep(s Spec, pmaxes []float64, policyNames []string) (*SensitivityResult, error) {
	return runSweep(s, "pmax", pmaxes, policyNames,
		func(ctx context.Context, s Spec, rep Replication, point float64, pf PolicyFactory) (*sim.Result, error) {
			if point <= 0 {
				return nil, fmt.Errorf("experiment: pmax %v <= 0", point)
			}
			sp := s
			sp.PMax = point
			// WCETs depend on PMax (§5.1).
			return runShifted(ctx, sp, rep, pf)
		})
}

// TaskCountSweep measures the miss rate as the number of periodic tasks
// sharing the utilization varies (the paper: "the number of periodic
// tasks in a task set is arbitrary").
func TaskCountSweep(s Spec, counts []float64, policyNames []string) (*SensitivityResult, error) {
	return runSweep(s, "tasks", counts, policyNames,
		func(ctx context.Context, s Spec, rep Replication, point float64, pf PolicyFactory) (*sim.Result, error) {
			n := int(point)
			if n < 1 {
				return nil, fmt.Errorf("experiment: task count %v < 1", point)
			}
			sp := s
			sp.NumTasks = n
			return runShifted(ctx, sp, rep, pf)
		})
}

// PredictorSweep measures the miss rate of each named predictor (sweep
// "points" are indices into the names slice). Every predictor runs at its
// built-in default parameters: the spec's PredictorAlpha tunes the spec's
// own predictor, not the swept ones.
func PredictorSweep(s Spec, predictors []string, policyNames []string) (*SensitivityResult, error) {
	for _, name := range predictors {
		if _, err := (Spec{}).PredictorFor(name); err != nil {
			return nil, err
		}
	}
	res, err := runSweep(s, "predictor", indexPoints(len(predictors)), policyNames,
		func(ctx context.Context, s Spec, rep Replication, point float64, pf PolicyFactory) (*sim.Result, error) {
			sp := s
			sp.Predictor = predictors[int(point)]
			sp.PredictorAlpha = 0
			return RunOne(ctx, sp, rep, defaultSweepCapacity, pf, false)
		})
	if err != nil {
		return nil, err
	}
	res.Labels = append([]string(nil), predictors...)
	return res, nil
}

// SlackFactorSweep measures the miss rate as the workload's best-case /
// worst-case execution ratio varies under the "stochastic-periodic" task
// model: lower points mean jobs usually finish well before their WCET
// budget, handing reclaiming policies (ea-dvfs-reclaim, lsa-reclaim)
// dynamic slack to stretch into. The spec's own TaskParams ride along —
// only "bc_ratio" is overridden per point — so the distribution shape
// ("dist", "mean", …) is still the caller's choice.
func SlackFactorSweep(s Spec, factors []float64, policyNames []string) (*SensitivityResult, error) {
	return runSweep(s, "bc-ratio", factors, policyNames,
		func(ctx context.Context, s Spec, rep Replication, point float64, pf PolicyFactory) (*sim.Result, error) {
			if point <= 0 || point > 1 {
				return nil, fmt.Errorf("experiment: best-case ratio %v outside (0,1]", point)
			}
			sp := s
			sp.TaskModel = "stochastic-periodic"
			params := make(map[string]any, len(s.TaskParams)+1)
			for k, v := range s.TaskParams {
				params[k] = v
			}
			params["bc_ratio"] = point
			sp.TaskParams = params
			// The execution spec is part of the task set.
			return runShifted(ctx, sp, rep, pf)
		})
}

// SleepStateSweep measures the miss rate under each named DPM sleep
// preset (sweep "points" are indices into the names slice) — the
// sleep-state ablation. "none" is the DPM-free baseline; "default"
// attaches cpu.DefaultSleepStates. An unknown preset name is an error,
// not a silent baseline run.
func SleepStateSweep(s Spec, presets []string, policyNames []string) (*SensitivityResult, error) {
	for _, name := range presets {
		if _, _, err := cpu.SleepPreset(name, 1); err != nil {
			return nil, err
		}
	}
	res, err := runSweep(s, "sleep", indexPoints(len(presets)), policyNames,
		func(ctx context.Context, s Spec, rep Replication, point float64, pf PolicyFactory) (*sim.Result, error) {
			sp := s
			sp.Sleep = presets[int(point)]
			return RunOne(ctx, sp, rep, defaultSweepCapacity, pf, false)
		})
	if err != nil {
		return nil, err
	}
	res.Labels = append([]string(nil), presets...)
	return res, nil
}

// indexPoints returns the points 0, 1, …, n-1 of a categorical sweep.
func indexPoints(n int) []float64 {
	points := make([]float64, n)
	for i := range points {
		points[i] = float64(i)
	}
	return points
}

// runShifted runs replication rep's cell under a spec whose workload
// parameters moved: the task set is re-derived for the shifted spec, and
// since the source seed does not depend on those parameters the new
// replication adopts rep's prepared solar master instead of re-realizing
// the trace once per (point, policy) cell.
func runShifted(ctx context.Context, s Spec, rep Replication, pf PolicyFactory) (*sim.Result, error) {
	shifted, err := Replicate(s, rep.Index)
	if err != nil {
		return nil, err
	}
	shifted.AdoptSource(rep)
	return RunOne(ctx, s, shifted, defaultSweepCapacity, pf, false)
}
