// Package runspec is the run document — one simulation's tasks, energy
// source, predictor, policy, processor, store and faults as plain JSON
// data — and Spec.Compile, the one place non-test code turns such a
// description into a sim.Config. The facade lowers eadvfs.Config into a
// Spec, cmd/easim -doc and examples/motivational run the documents Paper
// returns, and internal/verify compiles each Spec once per engine.
// Observers are not part of the document: the caller sets Probe, Context,
// CheckInvariants and RecordEnergy on the compiled config.
package runspec

import (
	"fmt"
	"math"

	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/fault"
	"github.com/eadvfs/eadvfs/internal/registry"
	"github.com/eadvfs/eadvfs/internal/sched"
	"github.com/eadvfs/eadvfs/internal/sim"
	"github.com/eadvfs/eadvfs/internal/storage"
	"github.com/eadvfs/eadvfs/internal/task"
)

// SourceSpec describes an energy source in plain JSON-serializable data.
// Build constructs a fresh source instance per call: memoizing sources such
// as SolarModel are deterministic in their seed, so two instances built
// from the same spec produce bit-identical traces.
type SourceSpec struct {
	Kind string `json:"kind"` // "constant", "two-mode", "solar", "trace"

	// Constant.
	Power float64 `json:"power,omitempty"`

	// TwoMode.
	Day    float64 `json:"day,omitempty"`
	Night  float64 `json:"night,omitempty"`
	Period float64 `json:"period,omitempty"`
	DayLen float64 `json:"day_len,omitempty"`

	// Solar.
	Seed      uint64  `json:"seed,omitempty"`
	Amplitude float64 `json:"amplitude,omitempty"`

	// Trace.
	Samples []float64 `json:"samples,omitempty"`
}

// Build constructs a fresh source from the spec, resolving the kind
// through the scenario registry. Every parameter is passed explicitly —
// including zero values — so the constructed source is a pure function
// of the spec, never of a registry default that might move.
func (s SourceSpec) Build() (energy.Source, error) {
	def, err := registry.Source(s.Kind)
	if err != nil {
		return nil, err
	}
	var p registry.Params
	switch s.Kind {
	case "constant":
		p = registry.Params{"power": s.Power}
	case "two-mode":
		p = registry.Params{"day": s.Day, "night": s.Night, "period": s.Period, "day_len": s.DayLen}
	case "solar":
		p = registry.Params{"seed": s.Seed, "amplitude": s.Amplitude}
	case "trace":
		p = registry.Params{"samples": s.Samples}
	default:
		return nil, fmt.Errorf("runspec: source kind %q is registered but has no parameter mapping here", s.Kind)
	}
	return def.Build(p)
}

// Spec is one run, complete and self-contained.
type Spec struct {
	// Policy names a registered policy; PolicyParams carries its
	// schema-declared parameters (e.g. static-dvfs's "utilization").
	Policy       string         `json:"policy"`
	PolicyParams map[string]any `json:"policy_params,omitempty"`

	Predictor string  `json:"predictor"` // a registered predictor name ("" is "ewma")
	Alpha     float64 `json:"alpha,omitempty"`

	Horizon float64     `json:"horizon"`
	Tasks   []task.Task `json:"tasks"`
	Source  SourceSpec  `json:"source"`

	// Capacity is the storage capacity (finite; 0 is legal and means the
	// system lives hand-to-mouth on harvest). Initial is the initial
	// charge, in [0, Capacity].
	Capacity float64 `json:"capacity"`
	Initial  float64 `json:"initial"`

	// BCWCRatio is the run-wide best-case/worst-case execution-time
	// ratio: a value in (0, 1) gives every task without its own
	// ExecSpec the uniform draw task.UniformExec(BCWCRatio); 0 and 1
	// keep jobs WCET-exact. ExecSeed seeds all actual-work draws.
	BCWCRatio float64 `json:"bcwc_ratio,omitempty"`
	ExecSeed  uint64  `json:"exec_seed,omitempty"`

	// FaultIntensity, in [0, 1], scales the mixed-fault model
	// (fault.Spec); 0 injects nothing. FaultSeed pins its schedule.
	FaultIntensity float64 `json:"fault_intensity,omitempty"`
	FaultSeed      uint64  `json:"fault_seed,omitempty"`

	// CPU selects the processor preset; empty means "xscale". PMax 0
	// keeps the preset's own power table; a positive PMax rescales the
	// "xscale" and "two-speed" tables so their maximum power is PMax.
	CPU  string  `json:"cpu,omitempty"` // "xscale", "two-speed", "pxa270", "sensor-mcu", "fig3"
	PMax float64 `json:"pmax,omitempty"`

	// Sleep names a DPM configuration (cpu.SleepPreset) attached to the
	// processor: "" / "none" for the paper's model, "default" for the
	// nap/deep ladder over a 5%·Pmax idle draw.
	Sleep string `json:"sleep,omitempty"`

	// MaxEvents is the runaway-watchdog budget (0 = unlimited).
	MaxEvents uint64 `json:"max_events,omitempty"`
}

// cpuPresets maps Spec.CPU to its processor: own builds the preset's own
// table (pmax 0), scaled the table rescaled to pmax (nil: not rescalable).
var cpuPresets = map[string]struct {
	own, scaled func(pmax float64) *cpu.Processor
}{
	"":           {fixed(cpu.XScale), cpu.XScaleScaled},
	"xscale":     {fixed(cpu.XScale), cpu.XScaleScaled},
	"two-speed":  {func(float64) *cpu.Processor { return cpu.TwoSpeed(4) }, cpu.TwoSpeed},
	"pxa270":     {own: fixed(cpu.PXA270)},
	"sensor-mcu": {own: fixed(cpu.SensorNodeMCU)},
	"fig3":       {own: fixed(cpu.Fig3)},
}

func fixed(preset func() *cpu.Processor) func(float64) *cpu.Processor {
	return func(float64) *cpu.Processor { return preset() }
}

// Processor resolves the document's processor preset, rescaled to PMax
// when set, with its sleep preset attached.
func (s *Spec) Processor() (proc *cpu.Processor, err error) {
	preset, ok := cpuPresets[s.CPU]
	build := preset.own
	switch {
	case !ok:
		return nil, fmt.Errorf("runspec: cpu: unknown preset %q", s.CPU)
	case s.PMax == 0: // the preset's own table
	case preset.scaled == nil:
		return nil, fmt.Errorf("runspec: pmax: cpu preset %q has a fixed power table", s.CPU)
	case !(s.PMax > 0) || math.IsInf(s.PMax, 0):
		return nil, fmt.Errorf("runspec: pmax %v must be positive and finite", s.PMax)
	default:
		build = preset.scaled
	}
	// cpu.New panics on a table it cannot use, such as one whose powers
	// underflow to zero at a tiny pmax: a document error, so report it.
	defer func() {
		if r := recover(); r != nil {
			proc, err = nil, fmt.Errorf("runspec: pmax %v: %v", s.PMax, r)
		}
	}()
	if proc, err = build(s.PMax).WithSleepPreset(s.Sleep); err != nil {
		return nil, fmt.Errorf("runspec: sleep: %w", err)
	}
	return proc, nil
}

// policy builds one side's policy through the registry: Factory for the
// optimized engine, RefFactory (the refimpl counterpart when registered,
// else the optimized constructor) for the reference engine.
func (s *Spec) policy(ref bool) (sched.Policy, error) {
	def, err := registry.Policy(s.Policy)
	if err != nil {
		return nil, err
	}
	factory := def.Factory
	if ref {
		factory = def.RefFactory
	}
	f, err := factory(registry.Params(s.PolicyParams))
	if err != nil {
		return nil, err
	}
	return f(), nil
}

// predictor builds one side's predictor through the registry, the way
// policy builds its policy. Alpha is passed only when set, so alpha-less
// predictors validate and an unset alpha takes the registered default.
func (s *Spec) predictor(src energy.Source, ref bool) (energy.Predictor, error) {
	def, err := registry.Predictor(s.Predictor)
	if err != nil {
		return nil, err
	}
	factory := def.Factory
	if ref {
		factory = def.RefFactory
	}
	var p registry.Params
	if s.Alpha != 0 {
		p = registry.Params{"alpha": s.Alpha}
	}
	f, err := factory(p)
	if err != nil {
		return nil, err
	}
	return f(src), nil
}

// Compile materializes the document as one engine's configuration: the
// reference engine's (internal/refimpl policies and predictors) when ref
// is set, the optimized one's otherwise. Every stateful component is
// fresh, and the document's task slice is copied, never shared.
func (s *Spec) Compile(ref bool) (*sim.Config, error) {
	switch {
	case s.BCWCRatio < 0 || s.BCWCRatio > 1 || math.IsNaN(s.BCWCRatio):
		return nil, fmt.Errorf("runspec: bcwc_ratio %v outside [0,1]", s.BCWCRatio)
	case !(s.Capacity >= 0) || math.IsInf(s.Capacity, 1):
		return nil, fmt.Errorf("runspec: capacity %v is not a finite non-negative number", s.Capacity)
	case !(s.Initial >= 0 && s.Initial <= s.Capacity):
		return nil, fmt.Errorf("runspec: initial %v outside [0, capacity %v]", s.Initial, s.Capacity)
	case !(s.FaultIntensity >= 0 && s.FaultIntensity <= 1):
		return nil, fmt.Errorf("runspec: fault_intensity %v outside [0,1]", s.FaultIntensity)
	}
	src, err := s.Source.Build()
	if err != nil {
		return nil, err
	}
	pred, err := s.predictor(src, ref)
	if err != nil {
		return nil, err
	}
	pol, err := s.policy(ref)
	if err != nil {
		return nil, err
	}
	proc, err := s.Processor()
	if err != nil {
		return nil, err
	}
	uniform := task.UniformExec(s.BCWCRatio)
	tasks := make([]task.Task, len(s.Tasks))
	copy(tasks, s.Tasks)
	for i := range tasks {
		if tasks[i].Exec == nil {
			tasks[i].Exec = uniform
		}
	}
	return &sim.Config{
		Horizon:   s.Horizon,
		Tasks:     tasks,
		Source:    src,
		Predictor: pred,
		Store:     storage.New(s.Capacity, s.Initial),
		CPU:       proc,
		Policy:    pol,
		ExecSeed:  s.ExecSeed,
		Faults:    fault.Spec{Seed: s.FaultSeed, Intensity: s.FaultIntensity},
		MaxEvents: s.MaxEvents,
	}, nil
}
