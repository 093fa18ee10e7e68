// Package experiment regenerates the paper's evaluation (§5): the energy
// source trace (Figure 5), the remaining-energy curves (Figures 6–7), the
// deadline-miss-rate sweeps (Figures 8–9) and the minimum-storage-capacity
// ratios (Table 1).
//
// Every experiment is driven by a Spec and a deterministic master seed;
// replication r of an experiment always sees the same task set and solar
// sample path regardless of which policies or capacities are being
// compared — the paper's "for the fair comparison of LSA and EA-DVFS, all
// simulations are performed under the same condition" (§5.2), and a
// paired-comparison variance reduction.
package experiment

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/registry"
	"github.com/eadvfs/eadvfs/internal/rng"
	"github.com/eadvfs/eadvfs/internal/sched"
	"github.com/eadvfs/eadvfs/internal/sim"
	"github.com/eadvfs/eadvfs/internal/task"
)

// DegradedRuns counts completed runs whose Result.Degradation recorded any
// fault-induced bending, across all sweeps in the process. The eaexp
// progress reporter samples it live; it is monitoring state, not a result
// (results carry their own Degradation tallies).
var DegradedRuns atomic.Int64

// tallyDegraded feeds the live degradation counter from one finished run.
func tallyDegraded(res *sim.Result) {
	if res != nil && res.Degradation.Any() {
		DegradedRuns.Add(1)
	}
}

// recordRun is the per-run observability tail every experiment runner
// calls: the live degradation tally, plus the spec's aggregate metrics
// registry when one is attached.
func (s Spec) recordRun(res *sim.Result) {
	tallyDegraded(res)
	if s.Metrics != nil && res != nil {
		s.Metrics.RecordRun(obs.RunOutcome{
			Released:  res.Miss.Released,
			Finished:  res.Miss.Finished,
			Missed:    res.Miss.Missed,
			MissRate:  res.Miss.Rate(),
			BusyTime:  res.BusyTime,
			IdleTime:  res.IdleTime,
			StallTime: res.StallTime,
			CPUEnergy: res.CPUEnergy,
			Degraded:  res.Degradation.Any(),
		})
	}
}

// PolicyFactory builds a fresh policy instance per run (EA-DVFS carries
// per-job state, so instances must not be shared across runs).
type PolicyFactory func() sched.Policy

// PredictorFactory builds a fresh predictor per run, given the run's
// energy source (only the oracle uses it).
type PredictorFactory func(src energy.Source) energy.Predictor

// Policy returns the factory for a registered policy name with default
// parameters; see internal/registry for the catalog. Policies whose
// schema binds to spec context (static-dvfs derives its operating point
// from the utilization) should resolve through Spec.PolicyFor instead.
func Policy(name string) (PolicyFactory, error) {
	return Spec{}.PolicyFor(name)
}

// BindUtilization returns params with utilization bound in when the
// registration declares a "utilization" parameter — the context
// static-dvfs sizes its fixed operating point from — and params leaves it
// unset; params itself is never modified. A zero utilization binds
// nothing.
func BindUtilization(def registry.PolicyDef, params map[string]any, utilization float64) registry.Params {
	if _, set := params["utilization"]; set || utilization == 0 || !def.HasParam("utilization") {
		return params
	}
	bound := registry.Params{"utilization": utilization}
	for k, v := range params {
		bound[k] = v
	}
	return bound
}

// Policies resolves a list of policy names via PolicyFor — the plural form
// callers of RunBatch and NewMinCapacitySearcher need.
func (s Spec) Policies(names []string) ([]PolicyFactory, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("experiment: no policies requested")
	}
	fs := make([]PolicyFactory, len(names))
	for i, n := range names {
		f, err := s.PolicyFor(n)
		if err != nil {
			return nil, err
		}
		fs[i] = f
	}
	return fs, nil
}

// PolicyFor resolves a policy name in the context of a spec with default
// parameters; schema-declared context parameters (static-dvfs's
// "utilization") bind from the spec.
func (s Spec) PolicyFor(name string) (PolicyFactory, error) {
	def, err := registry.Policy(name)
	if err != nil {
		return nil, err
	}
	f, err := def.Factory(BindUtilization(def, nil, s.Utilization))
	if err != nil {
		return nil, err
	}
	return PolicyFactory(f), nil
}

// Spec holds the §5.1 simulation parameters.
type Spec struct {
	Horizon      float64   // simulation length; paper: 10 000
	NumTasks     int       // periodic tasks per set; paper figures use 5
	Utilization  float64   // target U
	Capacities   []float64 // storage sweep; paper: 200…5000
	Replications int       // task sets per point; paper: 5 000
	Seed         uint64    // master seed
	Predictor    string    // predictor name (see Predictor)

	// TaskModel names the registered workload generator ("" means
	// "periodic", the paper's §5.1 recipe) and TaskParams carries its
	// schema-validated parameters. Schema v2 members: serialized under
	// explicit lowercase keys, omitted when unset so v1 documents and
	// their digests are unchanged.
	TaskModel  string         `json:"task_model,omitempty"`
	TaskParams map[string]any `json:"task_params,omitempty"`

	// Sleep names the processor's DPM sleep preset ("" or "none" runs
	// without DPM, "default" attaches the standard nap/deep pair — see
	// cpu.SleepPreset). Schema v2 member, omitted when unset so v1
	// documents and their digests are unchanged.
	Sleep string `json:"sleep,omitempty"`

	// PredictorAlpha overrides the smoothing factor of the "ewma" and
	// "slot-ewma" predictors; 0 keeps each predictor's built-in default.
	// Flag-sourced values are validated through the energy package's
	// checked constructors, so a bad alpha is an error, not a panic
	// mid-sweep.
	PredictorAlpha float64

	// PMax sets the processor's maximum power in the experiment's energy
	// units (relative XScale powers are preserved). The paper leaves the
	// absolute scale implicit; DefaultSpec calibrates it so the miss-rate
	// dynamic range matches Figures 8–9 (DESIGN.md §5.3).
	PMax float64

	// Probe, when non-nil, observes every run of the experiment
	// (sim.Config.Probe). Shared across the parallel workers, so it must be
	// safe for concurrent use (obs.JSONLWriter and obs.MetricsProbe are).
	// Excluded from serialization: a manifest identifies the experiment,
	// not its observers.
	Probe obs.Probe `json:"-"`

	// Metrics, when non-nil, additionally receives per-run aggregate
	// series (obs.Registry.RecordRun) from every finished run. Registry handles
	// are concurrency-safe, so one registry serves all workers. Excluded
	// from serialization for the same reason as Probe.
	Metrics *obs.Registry `json:"-"`

	// Spans, when non-nil, receives wall-clock phase spans from the shard
	// runner (plan / simulate / aggregate — DESIGN.md §15), parented under
	// the span context the sink carries (obs.TraceCarrier), e.g. the
	// service's per-request engine span. Shared across parallel
	// workers, so it must be safe for concurrent use. Excluded from
	// serialization and therefore from the config digest: tracing a sweep
	// must not change its cache identity.
	Spans obs.SpanSink `json:"-"`
}

// Processor returns the spec's calibrated XScale processor, with the
// spec's DPM sleep preset attached when one names any sleep machinery.
// Validate rejects unknown preset names before any run, so resolution
// here cannot fail.
func (s Spec) Processor() *cpu.Processor {
	p, err := cpu.XScaleScaled(s.PMax).WithSleepPreset(s.Sleep)
	if err != nil {
		panic(err)
	}
	return p
}

// DefaultSpec returns the paper's setup with a CI-friendly replication
// count (the paper's 5 000 is available by overriding Replications).
func DefaultSpec() Spec {
	return Spec{
		Horizon:      10000,
		NumTasks:     5,
		Utilization:  0.4,
		Capacities:   PaperCapacities(),
		Replications: 40,
		Seed:         1,
		Predictor:    "ewma",
		PMax:         10,
	}
}

// PaperCapacities returns the §5.2 storage sweep {200, 300, 500, 1000,
// 2000, 3000, 5000}.
func PaperCapacities() []float64 {
	return []float64{200, 300, 500, 1000, 2000, 3000, 5000}
}

// Validate checks a Spec.
func (s Spec) Validate() error {
	switch {
	case s.Horizon <= 0:
		return fmt.Errorf("experiment: horizon %v <= 0", s.Horizon)
	case math.IsNaN(s.Horizon) || math.IsInf(s.Horizon, 0):
		return fmt.Errorf("experiment: horizon %v not finite", s.Horizon)
	case s.NumTasks <= 0:
		return fmt.Errorf("experiment: %d tasks", s.NumTasks)
	case !(s.Utilization > 0 && s.Utilization <= 1):
		return fmt.Errorf("experiment: utilization %v outside (0,1]", s.Utilization)
	case len(s.Capacities) == 0:
		return fmt.Errorf("experiment: no capacities")
	case s.Replications <= 0:
		return fmt.Errorf("experiment: %d replications", s.Replications)
	case s.PMax <= 0:
		return fmt.Errorf("experiment: PMax %v <= 0", s.PMax)
	case math.IsNaN(s.PMax) || math.IsInf(s.PMax, 0):
		return fmt.Errorf("experiment: PMax %v not finite", s.PMax)
	}
	for _, c := range s.Capacities {
		if c <= 0 || math.IsInf(c, 0) || math.IsNaN(c) {
			return fmt.Errorf("experiment: invalid capacity %v", c)
		}
	}
	if _, err := s.PredictorFor(s.Predictor); err != nil {
		return err
	}
	if _, _, err := cpu.SleepPreset(s.Sleep, 1); err != nil {
		return err
	}
	model, err := registry.TaskModel(s.TaskModel)
	if err != nil {
		return err
	}
	if err := registry.ValidateParams(registry.KindTaskModel, model.Name, model.Params, registry.Params(s.TaskParams)); err != nil {
		return err
	}
	return nil
}

// PredictorFor resolves a predictor name with the spec's smoothing factor
// applied. With PredictorAlpha zero the registered defaults stand;
// otherwise the override must name a predictor whose schema declares an
// "alpha" parameter.
func (s Spec) PredictorFor(name string) (PredictorFactory, error) {
	def, err := registry.Predictor(name)
	if err != nil {
		return nil, err
	}
	var p registry.Params
	if s.PredictorAlpha != 0 {
		if !def.HasParam("alpha") {
			return nil, fmt.Errorf("experiment: predictor %q has no smoothing factor to override", def.Name)
		}
		p = registry.Params{"alpha": s.PredictorAlpha}
	}
	f, err := def.Factory(p)
	if err != nil {
		return nil, err
	}
	return PredictorFactory(f), nil
}

// defaultEventBudget is the runaway watchdog for experiment runs: a
// healthy run dispatches a handful of events per time unit, so three
// orders of magnitude above that can only be a decision loop stuck at one
// instant. The explicit float64 keeps the product from fusing with the
// conversion's subtraction on ppc64le and riscv64.
func defaultEventBudget(horizon float64) uint64 {
	return uint64(float64((horizon + 10) * 1000))
}

// Replication is the deterministic per-replication material: the task set
// and the seed of the solar sample path. Policies and capacities compared
// within a replication share both.
type Replication struct {
	Index      int
	Tasks      []task.Task
	SourceSeed uint64

	// master is the replication's memoized solar trace. When prepared,
	// Source() forks it, so every paired policy/capacity run shares one
	// realized sample path instead of regenerating ~horizon half-normal
	// draws per run. nil is always valid — Source() then seeds a fresh
	// model, which realizes the bit-identical trace (the seed is the
	// trace's identity).
	master *energy.SolarModel
}

// PrepareSource memoizes the replication's solar model and warms it
// through time upTo. Call it once before fanning a replication out to
// parallel runs: the forks then share the realized trace and never mutate
// the master, so concurrent runs stay race-free. The master retains only
// its per-unit power table, 8 bytes per unit (the cos² envelope comes
// from energy's process-wide table); each fork that answers prefix
// queries (the oracle predictor's) builds its own prefix table. Sweeps
// call it on the worker that first runs one of the replication's cells
// and drop the master after the last (runGrid), so a sweep's prepared
// traces scale with Parallelism, not with its replication count.
func (r *Replication) PrepareSource(upTo float64) {
	if r.master == nil {
		r.master = energy.NewSolarModel(r.SourceSeed)
	}
	if upTo >= 0 {
		r.master.PowerAt(upTo)
	}
}

// Source returns the solar source for one run of this replication: a fork
// of the prepared master (sharing its memoized samples) or, unprepared, a
// fresh seeded model. Both realize the same trace bit for bit.
func (r *Replication) Source() *energy.SolarModel {
	if r.master != nil {
		return r.master.Fork()
	}
	return energy.NewSolarModel(r.SourceSeed)
}

// AdoptSource shares another replication's memoized solar master when the
// source seeds match. Sweeps that re-derive the task set for a shifted
// parameter (PMaxSweep, TaskCountSweep, Table 1's utilizations) produce
// replications with the same source seed as the originals; adopting the
// prepared master lets their runs fork the already-realized trace instead
// of regenerating ~horizon half-normal draws per cell. A seed mismatch
// adopts nothing — correctness never depends on adoption (the seed is the
// trace identity).
func (r *Replication) AdoptSource(from Replication) {
	if r.SourceSeed == from.SourceSeed {
		r.master = from.master
	}
}

// solarMeanPower memoizes the generator's harvest-power scale: the eq. (13)
// mean is closed-form and seed-independent, so deriving thousands of
// replications should not rebuild a model per call.
var solarMeanPower = sync.OnceValue(func() float64 {
	return energy.NewSolarModel(0).MeanPower()
})

// Replicate derives replication r of the spec through its registered
// task model (default "periodic", the paper's recipe).
func Replicate(s Spec, r int) (Replication, error) {
	model, err := registry.TaskModel(s.TaskModel)
	if err != nil {
		return Replication{}, err
	}
	master := rng.New(s.Seed)
	taskRng := master.Child(uint64(2 * r))
	srcSeed := master.Child(uint64(2*r + 1)).Uint64()
	gen := registry.TaskGen{
		NumTasks:         s.NumTasks,
		TargetU:          s.Utilization,
		MeanHarvestPower: solarMeanPower(),
		PMax:             s.Processor().MaxPower(),
	}
	tasks, err := model.Build(gen, registry.Params(s.TaskParams), taskRng)
	if err != nil {
		return Replication{}, err
	}
	return Replication{Index: r, Tasks: tasks, SourceSeed: srcSeed}, nil
}

// execSeedOf derives a replication's execution-draw seed: a pure
// function of the replication identity (so paired policy/capacity runs
// share the same per-job draws), decorrelated from the solar seed so
// the two stochastic streams never accidentally alias. Consulted by the
// engine only when the workload is stochastic — WCET-exact runs never
// observe it.
func execSeedOf(rep Replication) uint64 {
	return rep.SourceSeed ^ 0xbf58476d1ce4e5b9
}

// RunOne executes a single simulation of replication rep at the given
// capacity under the given policy, with the spec's predictor. The store
// starts full (§5.1). A ctx that can be cancelled is handed to the engine
// (sim.Config.Context), so an abandoned or timed-out request aborts the
// run mid-flight instead of finishing a result nobody wants.
func RunOne(ctx context.Context, s Spec, rep Replication, capacity float64, pf PolicyFactory, record bool) (*sim.Result, error) {
	r, err := newRunner(s, rep)
	if err != nil {
		return nil, err
	}
	return r.run(r.config(ctx, capacity, pf, record))
}
