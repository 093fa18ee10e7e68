// Package eadvfs is a discrete-event simulation library for real-time
// scheduling on energy-harvesting systems, reproducing Liu, Qiu & Wu,
// "Energy Aware Dynamic Voltage and Frequency Selection for Real-Time
// Systems with Energy Harvesting" (DATE 2008).
//
// The package is a facade over the full engine: it runs one simulation of
// a periodic task set on a DVFS processor fed by an energy-harvesting
// store, under one of the implemented scheduling policies:
//
//   - "ea-dvfs"          — the paper's contribution (§4)
//   - "ea-dvfs-dynamic"  — ablation: s2 recomputed instead of locked
//   - "lsa"              — lazy scheduling (Moser et al.), the baseline
//   - "edf"              — energy-oblivious earliest deadline first
//   - "greedy-stretch"   — ablation: stretching without the §4.3 guard
//
// For the paper's full evaluation harness (figures 5–9, table 1) see
// cmd/eaexp; for schedule traces of small scenarios see cmd/eatrace.
package eadvfs

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/eadvfs/eadvfs/internal/analysis"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/experiment"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/registry"
	"github.com/eadvfs/eadvfs/internal/rng"
	"github.com/eadvfs/eadvfs/internal/runspec"
	"github.com/eadvfs/eadvfs/internal/sim"
	"github.com/eadvfs/eadvfs/internal/spec"
	"github.com/eadvfs/eadvfs/internal/task"
)

// Probe receives structured observability output from a run: engine
// events (arrivals, dispatches, segments, completions, deadline misses,
// stalls, fault activations, invariant violations) and the scheduler's
// decision-audit records. The alias re-exports internal/obs.Probe so
// facade users can attach observers without importing internal packages;
// cmd/easim shows the ready-made sinks (JSONL stream, metrics registry).
type Probe = obs.Probe

// Task is a periodic task: every Period time units a job with relative
// deadline Deadline and worst-case execution time WCET (expressed at the
// processor's maximum frequency) is released, starting at Offset.
type Task struct {
	Period   float64
	Deadline float64 // defaults to Period when zero
	WCET     float64
	Offset   float64
}

// Config describes one simulation. Zero values take the documented
// defaults.
type Config struct {
	// Schema declares the JSON schema version of a serialized config:
	// 0 or 1 mean the original unversioned v1 wire form, 2 the current
	// one. Documents using the v2-only members (PolicyParams, TaskModel,
	// TaskParams, Sleep) must declare 2 (internal/spec checks this on
	// the wire). The member is excluded from the config's digest
	// identity: the service zeroes it before the canonical marshal it
	// keys its cache on (DESIGN.md §16). New fields here are
	// omitempty and appended without reordering the originals: the
	// canonical marshal of every v1 config, and with it every cached
	// digest, must stay byte-stable.
	Schema int `json:"schema,omitempty"`

	// Horizon is the simulated duration (default 10 000, the paper's).
	Horizon float64

	// Policy selects the scheduler (default "ea-dvfs"). Names resolve
	// through the scenario registry — Policies() enumerates them, and
	// RegisterPolicy adds new ones.
	Policy string

	// PolicyParams carries the policy's schema-declared parameters
	// (e.g. {"utilization": 0.5} for static-dvfs); unset parameters
	// take their registered defaults. Requires Schema 2 on the wire.
	PolicyParams map[string]any `json:"policy_params,omitempty"`

	// Predictor selects the harvest predictor: "ewma" (default),
	// "oracle", "slot-ewma", "moving-average", "last-value", "zero".
	Predictor string

	// Capacity is the energy storage size C (default 1000).
	Capacity float64

	// InitialEnergy is the starting store level (default full).
	InitialEnergy *float64

	// PMax scales the XScale processor's power table so its maximum
	// power equals this value, in the same units as the harvest power
	// (default 10; see DESIGN.md §5.3 for the calibration).
	PMax float64

	// Tasks is the workload. When empty, a random paper-style task set
	// of NumTasks tasks at Utilization is generated from Seed.
	Tasks []Task

	// NumTasks and Utilization parameterize the generated workload
	// (defaults 5 and 0.4).
	NumTasks    int
	Utilization float64

	// TaskModel names the registered workload generator used when Tasks
	// is empty ("" means "periodic", the paper's §5.1 recipe), and
	// TaskParams carries its schema-declared parameters. Both require
	// Schema 2 on the wire.
	TaskModel  string         `json:"task_model,omitempty"`
	TaskParams map[string]any `json:"task_params,omitempty"`

	// Sleep names a DPM configuration (cpu.SleepPreset) attached to the
	// processor: "" or "none" keeps the paper's model (no idle draw, no
	// sleep states); "default" enables the nap/deep ladder over an idle
	// draw of 5% of PMax, with break-even-gated entry. Requires Schema 2
	// on the wire.
	Sleep string `json:"sleep,omitempty"`

	// Seed drives the workload generator and the solar sample path
	// (default 1).
	Seed uint64

	// ConstantHarvest, when non-nil, replaces the paper's stochastic
	// solar source with a constant-power source.
	ConstantHarvest *float64

	// HarvestTrace, when non-empty, replaces the source with a replayed
	// power trace (one sample per time unit, wrapping).
	HarvestTrace []float64

	// RecordEnergy samples the stored energy once per time unit into
	// Result.StoredEnergy.
	RecordEnergy bool

	// FaultIntensity, in (0, 1], enables the canonical mixed-fault model
	// at that intensity: harvester dropouts and brown-outs, storage
	// capacity fade and leakage spikes, stuck DVFS transitions, predictor
	// blackouts and job WCET overruns, all scaling together. 0 (the
	// default) injects nothing. Faulted runs degrade gracefully and
	// report what happened in Result.Degradation.
	FaultIntensity float64

	// FaultSeed pins the fault schedule (default 1). Policies compared
	// under the same FaultSeed experience the identical faults.
	FaultSeed uint64

	// CheckInvariants arms the engine's runtime self-checker (store
	// bounds, energy conservation, clock monotonicity). A violated run
	// returns a structured error alongside the result.
	CheckInvariants bool

	// Probe, when non-nil, observes the run (engine events and scheduler
	// decision audits). Excluded from serialization: a run manifest
	// identifies the simulation, not its observers.
	Probe Probe `json:"-"`
}

// Degradation summarizes the fault-induced degradation of a run: how long
// each fault class was active and how much energy or work it cost. All
// zero on fault-free runs.
type Degradation struct {
	SourceFaultTime float64 // time units the harvester was dropped out
	LeakSpikeTime   float64 // time units a leakage spike was active
	DVFSStuckTime   float64 // time units DVFS transitions were stuck
	BlackoutTime    float64 // time units predictor observations were lost
	FadeEnergy      float64 // energy shed to capacity fade
	LeakSpikeEnergy float64 // energy lost to leakage spikes
	OverrunWork     float64 // work executed beyond declared WCETs
	DVFSClamps      int     // operating-point changes refused
	StaleForecasts  int     // predictor observations dropped
	Overruns        int     // jobs that overran their WCET
}

// Result summarizes a run.
type Result struct {
	Policy   string
	Released int
	Finished int
	Missed   int
	MissRate float64

	// StoredEnergy is EC(t) at t = 0, 1, … when Config.RecordEnergy is
	// set; nil otherwise.
	StoredEnergy []float64

	// Energy accounting.
	HarvestedEnergy float64
	OverflowEnergy  float64 // discarded because the store was full
	CPUEnergy       float64
	FinalStored     float64

	// Time accounting (sums to Horizon).
	BusyTime  float64
	IdleTime  float64
	StallTime float64

	// LevelTime is the execution time spent at each DVFS operating
	// point, slowest first.
	LevelTime []float64

	// Degradation reports fault-induced degradation; all zero unless
	// Config.FaultIntensity was set.
	Degradation Degradation

	// DPM accounting; all zero unless Config.Sleep names a preset with
	// sleep states. Omitted from JSON when zero, so pre-existing
	// WCET-exact, sleep-free responses keep their exact bytes.
	SleepTime   float64 `json:",omitempty"` // time units spent in a sleep state
	Wakeups     int     `json:",omitempty"` // sleep→active transitions
	DPMOverhead float64 `json:",omitempty"` // transition energy drawn entering/exiting sleep

	// Stochastic-execution accounting; all zero on WCET-exact runs.
	DrawnJobs        int     `json:",omitempty"` // jobs whose actual work was drawn below WCET
	EarlyCompletions int     `json:",omitempty"` // jobs that finished with budget unspent
	ReclaimedWork    float64 `json:",omitempty"` // total unspent WCET budget (work at f_max)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Horizon == 0 {
		out.Horizon = 10000
	}
	if out.Policy == "" {
		out.Policy = "ea-dvfs"
	}
	if out.Capacity == 0 {
		out.Capacity = 1000
	}
	if out.PMax == 0 {
		out.PMax = 10
	}
	if out.NumTasks == 0 {
		out.NumTasks = 5
	}
	if out.Utilization == 0 {
		out.Utilization = 0.4
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.FaultSeed == 0 {
		out.FaultSeed = 1
	}
	return out
}

// Run executes one simulation.
func Run(userCfg Config) (*Result, error) {
	return RunContext(context.Background(), userCfg)
}

// RunContext executes one simulation under a cancellation context: when
// ctx is cancelled (or its deadline passes), the engine aborts at its next
// poll and RunContext returns an error wrapping ctx.Err() with no Result.
// The simulation service (cmd/easerve) uses this to propagate per-request
// timeouts and client disconnects into running engines;
// context.Background() reproduces Run exactly.
func RunContext(ctx context.Context, userCfg Config) (*Result, error) {
	simCfg, err := compile(userCfg)
	if err != nil {
		return nil, err
	}
	if ctx != nil && ctx != context.Background() {
		simCfg.Context = ctx
	}
	res, err := sim.Run(simCfg)
	if err != nil {
		return nil, err
	}

	out := &Result{
		Policy:          res.Policy,
		Released:        res.Miss.Released,
		Finished:        res.Miss.Finished,
		Missed:          res.Miss.Missed,
		MissRate:        res.Miss.Rate(),
		HarvestedEnergy: res.Meters.Harvested,
		OverflowEnergy:  res.Meters.Overflow,
		CPUEnergy:       res.CPUEnergy,
		FinalStored:     res.FinalLevel,
		BusyTime:        res.BusyTime,
		IdleTime:        res.IdleTime,
		StallTime:       res.StallTime,
		LevelTime:       res.LevelTime,
		Degradation:     Degradation(res.Degradation),
	}
	out.SleepTime = res.SleepTime
	out.Wakeups = res.Wakeups
	out.DPMOverhead = res.DPMOverhead
	out.DrawnJobs = res.Slack.DrawnJobs
	out.EarlyCompletions = res.Slack.EarlyCompletions
	out.ReclaimedWork = res.Slack.ReclaimedWork
	if res.EnergySeries != nil {
		out.StoredEnergy = res.EnergySeries.Values
	}
	return out, nil
}

// Analysis is the closed-form feasibility report of a run's workload
// (internal/analysis): EDF schedulability, long-run energy demand
// against the source's mean supply, and ride-through storage bounds.
type Analysis = analysis.Report

// Analyze returns the feasibility report of the task set, processor and
// harvest source that Run would simulate for cfg, over its horizon.
func Analyze(cfg Config) (Analysis, error) {
	simCfg, err := compile(cfg)
	if err != nil {
		return Analysis{}, err
	}
	return analysis.Analyze(simCfg.Tasks, simCfg.CPU, simCfg.Source, simCfg.Horizon)
}

// compile validates a facade config and lowers it, through a run
// document, into the engine configuration Run and Analyze share.
func compile(userCfg Config) (*sim.Config, error) {
	cfg := userCfg.withDefaults()

	if cfg.Schema < 0 || cfg.Schema > spec.Current {
		return nil, fmt.Errorf("eadvfs: unsupported schema version %d (max %d)", cfg.Schema, spec.Current)
	}

	switch {
	case !(cfg.PMax > 0) || math.IsInf(cfg.PMax, 0):
		return nil, fmt.Errorf("eadvfs: PMax %v must be positive and finite", cfg.PMax)
	case !(cfg.Capacity > 0) || math.IsInf(cfg.Capacity, 0):
		return nil, fmt.Errorf("eadvfs: Capacity %v must be positive and finite", cfg.Capacity)
	case cfg.InitialEnergy != nil && math.IsNaN(*cfg.InitialEnergy):
		return nil, errors.New("eadvfs: InitialEnergy is NaN")
	}

	initial := cfg.Capacity
	if cfg.InitialEnergy != nil {
		initial = *cfg.InitialEnergy
	}
	if initial < 0 || initial > cfg.Capacity {
		return nil, fmt.Errorf("eadvfs: initial energy %v outside [0, %v]", initial, cfg.Capacity)
	}
	if !(cfg.FaultIntensity >= 0 && cfg.FaultIntensity <= 1) {
		return nil, fmt.Errorf("eadvfs: fault intensity %v outside [0, 1]", cfg.FaultIntensity)
	}

	// Lower the run into a run document; the facade's convenience fields
	// name the registered source kinds, solar at its default amplitude.
	doc := &runspec.Spec{
		Policy:         cfg.Policy,
		Predictor:      cfg.Predictor,
		Horizon:        cfg.Horizon,
		Capacity:       cfg.Capacity,
		Initial:        initial,
		CPU:            "xscale",
		PMax:           cfg.PMax,
		Sleep:          cfg.Sleep,
		ExecSeed:       cfg.Seed, // consulted only when the workload is stochastic
		FaultIntensity: cfg.FaultIntensity,
		FaultSeed:      cfg.FaultSeed,
	}
	switch {
	case cfg.ConstantHarvest != nil && len(cfg.HarvestTrace) > 0:
		return nil, errors.New("eadvfs: ConstantHarvest and HarvestTrace are mutually exclusive")
	case cfg.ConstantHarvest != nil:
		doc.Source = runspec.SourceSpec{Kind: "constant", Power: *cfg.ConstantHarvest}
	case len(cfg.HarvestTrace) > 0:
		doc.Source = runspec.SourceSpec{Kind: "trace", Samples: cfg.HarvestTrace}
	default:
		doc.Source = runspec.SourceSpec{Kind: "solar", Seed: cfg.Seed, Amplitude: 10}
	}

	// The spec context binds "static-dvfs" to the configured utilization
	// unless PolicyParams pins one explicitly.
	def, err := registry.Policy(cfg.Policy)
	if err != nil {
		return nil, err
	}
	doc.PolicyParams = experiment.BindUtilization(def, cfg.PolicyParams, cfg.Utilization)
	if doc.Tasks, err = buildTasks(cfg, doc); err != nil {
		return nil, err
	}
	simCfg, err := doc.Compile(false)
	if err != nil {
		return nil, fmt.Errorf("eadvfs: %w", err)
	}
	simCfg.RecordEnergy = cfg.RecordEnergy
	simCfg.CheckInvariants = cfg.CheckInvariants
	simCfg.Probe = cfg.Probe
	return simCfg, nil
}

// buildTasks returns the configured task list, or generates one sized to
// the document's source and processor.
func buildTasks(cfg Config, doc *runspec.Spec) ([]task.Task, error) {
	if len(cfg.Tasks) == 0 {
		model, err := registry.TaskModel(cfg.TaskModel)
		if err != nil {
			return nil, err
		}
		src, err := doc.Source.Build()
		if err != nil {
			return nil, fmt.Errorf("eadvfs: %w", err)
		}
		gen := registry.TaskGen{
			NumTasks:         cfg.NumTasks,
			TargetU:          cfg.Utilization,
			MeanHarvestPower: src.MeanPower(),
			PMax:             cfg.PMax, // the maximum power of the rescaled XScale table
		}
		if gen.MeanHarvestPower <= 0 {
			// A zero-power source cannot parameterize the generator;
			// fall back to the paper's solar mean.
			gen.MeanHarvestPower = energy.NewSolarModel(0).MeanPower()
		}
		return model.Build(gen, registry.Params(cfg.TaskParams), rng.New(cfg.Seed))
	}
	out := make([]task.Task, len(cfg.Tasks))
	for i, t := range cfg.Tasks {
		d := t.Deadline
		if d == 0 {
			d = t.Period
		}
		out[i] = task.Task{ID: i, Period: t.Period, Deadline: d, WCET: t.WCET, Offset: t.Offset}
		if err := out[i].Validate(); err != nil {
			return nil, fmt.Errorf("eadvfs: %w", err)
		}
	}
	return out, nil
}

// Compare runs the identical workload, harvest sample path and platform
// under each named policy (defaults to Policies() when none are given)
// and returns the results keyed by policy name. Because everything except
// the policy is held fixed, differences are attributable to the
// scheduling decisions alone — the paper's §5.2 "same condition"
// methodology as an API.
func Compare(cfg Config, policies ...string) (map[string]*Result, error) {
	if len(policies) == 0 {
		policies = Policies()
	}
	out := make(map[string]*Result, len(policies))
	for _, p := range policies {
		c := cfg
		c.Policy = p
		res, err := Run(c)
		if err != nil {
			return nil, fmt.Errorf("eadvfs: policy %s: %w", p, err)
		}
		out[p] = res
	}
	return out, nil
}

// Policies lists the registered policy names in registration order.
func Policies() []string { return registry.PolicyNames() }

// Predictors lists the registered predictor names in registration order.
func Predictors() []string { return registry.PredictorNames() }

// Sources lists the registered energy-source kinds in registration order.
func Sources() []string { return registry.SourceNames() }

// TaskModels lists the registered task-model names in registration order.
func TaskModels() []string { return registry.TaskModelNames() }

// The scenario registry, re-exported so external scenario packages can
// register policies, sources, predictors and task models against the
// facade without importing internal packages. A registration is
// self-describing (name, help, parameter schema) and immediately
// resolvable everywhere names are accepted: this Config, the CLIs, the
// HTTP service — and the differential-verification harness, which
// auto-sweeps every registered policy against the reference engine
// (DESIGN.md §16).
type (
	// PolicyDef describes a scheduling-policy registration.
	PolicyDef = registry.PolicyDef
	// SourceDef describes an energy-source registration.
	SourceDef = registry.SourceDef
	// PredictorDef describes a harvest-predictor registration.
	PredictorDef = registry.PredictorDef
	// TaskModelDef describes a workload-generator registration.
	TaskModelDef = registry.TaskModelDef
	// Param is one entry of a registration's parameter schema.
	Param = registry.Param
	// Params carries schema-validated parameter values.
	Params = registry.Params
)

// RegisterPolicy adds a scheduling policy to the scenario registry. It
// panics on a duplicate or malformed registration (registrations are
// init-time programming errors).
func RegisterPolicy(def PolicyDef) { registry.RegisterPolicy(def) }

// RegisterSource adds an energy-source kind to the scenario registry.
func RegisterSource(def SourceDef) { registry.RegisterSource(def) }

// RegisterPredictor adds a harvest predictor to the scenario registry.
func RegisterPredictor(def PredictorDef) { registry.RegisterPredictor(def) }

// RegisterTaskModel adds a workload generator to the scenario registry.
func RegisterTaskModel(def TaskModelDef) { registry.RegisterTaskModel(def) }
