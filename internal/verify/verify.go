// Package verify is the differential-verification harness: it runs the
// optimized engine (internal/sim with its typed event heaps, prefix-sum
// energy caches and reused contexts) and the deliberately naive reference
// engine (internal/refimpl) on identical inputs and demands bit-identical
// outputs — decision audits, engine event streams, and every exported
// Result metric.
//
// The comparison is exact (math.Float64bits, not a tolerance) because the
// optimized layers were written as accumulation-order-preserving rewrites
// of the naive formulations; DESIGN.md §11 states that contract and its
// boundary. A divergence therefore always means a real bug in one of the
// engines, never float reassociation noise — which is what makes the
// harness usable as a CI gate (`go test ./internal/verify -quick`) and as
// the backing store of cmd/eaverify's minimizing reproducer.
package verify

import (
	"errors"
	"fmt"
	"math"
	"reflect"

	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/fault"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/refimpl"
	"github.com/eadvfs/eadvfs/internal/registry"
	"github.com/eadvfs/eadvfs/internal/sched"
	"github.com/eadvfs/eadvfs/internal/sim"
	"github.com/eadvfs/eadvfs/internal/storage"
	"github.com/eadvfs/eadvfs/internal/task"
)

// SourceSpec describes an energy source in plain JSON-serializable data,
// so a diverging configuration can be written to disk and replayed by
// cmd/eaverify. Build constructs a fresh source instance per call: the
// optimized and reference engines each get their own (memoizing sources
// such as SolarModel are deterministic in their seed, so two instances
// built from the same spec produce bit-identical traces).
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
		p = registry.Params{"samples": s.Samples, "label": "verify-trace"}
	default:
		return nil, fmt.Errorf("verify: source kind %q is registered but has no parameter mapping here", s.Kind)
	}
	return def.Build(p)
}

// Spec is one differential test case: everything both engines need to run,
// as plain serializable data. RandomSpec draws these from a seed;
// cmd/eaverify reads and writes them as JSON.
type Spec struct {
	// Seed is the generator seed this spec was drawn from (bookkeeping
	// only — the spec is self-contained).
	Seed uint64 `json:"seed"`

	// Policy names a registered policy — the harness enumerates the
	// registry, so every registration is a legal (and swept) value.
	// PolicyParams carries its schema-declared parameters (e.g.
	// static-dvfs's "utilization").
	Policy       string         `json:"policy"`
	PolicyParams map[string]any `json:"policy_params,omitempty"`

	Predictor string  `json:"predictor"` // a registered predictor name
	Alpha     float64 `json:"alpha,omitempty"`

	Horizon float64     `json:"horizon"`
	Tasks   []task.Task `json:"tasks"`
	Source  SourceSpec  `json:"source"`

	// Capacity is the storage capacity (finite; 0 is legal and means the
	// system lives hand-to-mouth on harvest). InitialFrac·Capacity is the
	// initial charge.
	Capacity    float64 `json:"capacity"`
	InitialFrac float64 `json:"initial_frac"`

	// BCWCRatio is the run-wide best-case/worst-case execution-time
	// ratio: a value in (0, 1) gives every task without its own
	// ExecSpec the uniform draw task.UniformExec(BCWCRatio); 0 and 1
	// keep jobs WCET-exact. ExecSeed seeds all actual-work draws.
	BCWCRatio float64 `json:"bcwc_ratio,omitempty"`
	ExecSeed  uint64  `json:"exec_seed,omitempty"`

	FaultIntensity float64 `json:"fault_intensity,omitempty"`
	FaultSeed      uint64  `json:"fault_seed,omitempty"`

	ContinueAfterDeadline bool `json:"continue_after_deadline,omitempty"`

	// CPU selects the processor preset; empty means "xscale".
	CPU string `json:"cpu,omitempty"` // "xscale", "two-speed", "pxa270", "sensor-mcu"

	// Sleep names a DPM configuration (cpu.SleepPreset) attached to the
	// CPU preset on both sides: "" / "none" for the paper's model,
	// "default" for the nap/deep ladder over a 5%·Pmax idle draw.
	Sleep string `json:"sleep,omitempty"`

	// MaxEvents is the runaway-watchdog budget applied to both engines
	// (0 = unlimited).
	MaxEvents uint64 `json:"max_events,omitempty"`

	// InjectBias, when non-zero, adds a constant bias to every energy
	// prediction the *optimized* side makes for query windows starting at
	// or after InjectAfter. It exists to fault-inject an artificial
	// divergence so the harness and minimizer can be tested end to end —
	// a spec with a bias is divergent by construction.
	InjectBias  float64 `json:"inject_bias,omitempty"`
	InjectAfter float64 `json:"inject_after,omitempty"`
}

// biasPredictor perturbs an inner predictor — the divergence fault
// injection behind Spec.InjectBias.
type biasPredictor struct {
	inner energy.Predictor
	bias  float64
	after float64
}

func (b *biasPredictor) Observe(t, p float64) { b.inner.Observe(t, p) }

func (b *biasPredictor) PredictEnergy(t1, t2 float64) float64 {
	e := b.inner.PredictEnergy(t1, t2)
	if t1 >= b.after {
		e += b.bias
	}
	return e
}

func (b *biasPredictor) Name() string { return b.inner.Name() }

// policyParams materializes the spec's policy parameters for validation.
func (s *Spec) policyParams() registry.Params { return registry.Params(s.PolicyParams) }

// policy builds one side's policy through the registry: Factory for the
// optimized engine; for the reference engine, RefFactory — the
// registration's Ref (a hand-written naive counterpart in
// internal/refimpl) when present, the optimized constructor otherwise.
// The fallback still cross-checks the two engines on a shared policy
// implementation, so every registered policy gets differential coverage
// the moment it registers.
func (s *Spec) policy(ref bool) (sched.Policy, error) {
	def, err := registry.Policy(s.Policy)
	if err != nil {
		return nil, err
	}
	factory := def.Factory
	if ref {
		factory = def.RefFactory
	}
	f, err := factory(s.policyParams())
	if err != nil {
		return nil, err
	}
	return f(), nil
}

// predictorParams maps the spec's Alpha shorthand onto the registry
// schema: passed only when set, so alpha-less predictors validate and
// an unset alpha takes the registered default.
func (s *Spec) predictorParams() registry.Params {
	if s.Alpha != 0 {
		return registry.Params{"alpha": s.Alpha}
	}
	return nil
}

// predictor builds one side's predictor through the registry, the way
// policy builds its policy.
func (s *Spec) predictor(src energy.Source, ref bool) (energy.Predictor, error) {
	def, err := registry.Predictor(s.Predictor)
	if err != nil {
		return nil, err
	}
	factory := def.Factory
	if ref {
		factory = def.RefFactory
	}
	f, err := factory(s.predictorParams())
	if err != nil {
		return nil, err
	}
	return f(src), nil
}

// cpuPresets maps Spec.CPU to its processor constructor.
var cpuPresets = map[string]func() *cpu.Processor{
	"":           cpu.XScale,
	"xscale":     cpu.XScale,
	"two-speed":  func() *cpu.Processor { return cpu.TwoSpeed(4) },
	"pxa270":     cpu.PXA270,
	"sensor-mcu": cpu.SensorNodeMCU,
}

// cpuFor resolves the spec's processor preset with its sleep preset
// attached. The processor is immutable after construction, so — unlike
// sources and predictors — one instance could be shared; fresh instances
// per side keep the isolation rule simple.
func cpuFor(s *Spec) (*cpu.Processor, error) {
	preset, ok := cpuPresets[s.CPU]
	if !ok {
		return nil, fmt.Errorf("verify: cpu: unknown preset %q", s.CPU)
	}
	p, err := preset().WithSleepPreset(s.Sleep)
	if err != nil {
		return nil, fmt.Errorf("verify: sleep: %w", err)
	}
	return p, nil
}

func (s *Spec) faults() *fault.Spec {
	if s.FaultIntensity <= 0 {
		return nil
	}
	f := fault.AtIntensity(s.FaultSeed, s.FaultIntensity)
	return &f
}

// Pair materializes the two configurations — optimized and reference —
// from the spec. Every stateful component (source, predictor, store,
// policy) is constructed fresh per side so neither run can contaminate
// the other; determinism in the spec guarantees the pairs start bit-equal.
func (s *Spec) Pair() (opt, ref *sim.Config, err error) {
	if opt, err = s.config(false); err != nil {
		return nil, nil, err
	}
	if ref, err = s.config(true); err != nil {
		return nil, nil, err
	}
	return opt, ref, nil
}

// config materializes one side's configuration with fresh stateful
// components: the reference engine's when isRef, the optimized one's
// otherwise.
func (s *Spec) config(isRef bool) (*sim.Config, error) {
	if s.InitialFrac < 0 || s.InitialFrac > 1 || math.IsNaN(s.InitialFrac) {
		return nil, fmt.Errorf("verify: initial_frac %v outside [0,1]", s.InitialFrac)
	}
	if s.BCWCRatio < 0 || s.BCWCRatio > 1 || math.IsNaN(s.BCWCRatio) {
		return nil, fmt.Errorf("verify: bcwc_ratio %v outside [0,1]", s.BCWCRatio)
	}
	if !(s.Capacity >= 0) || math.IsInf(s.Capacity, 1) {
		return nil, fmt.Errorf("verify: capacity %v is not a finite non-negative number", s.Capacity)
	}
	src, err := s.Source.Build()
	if err != nil {
		return nil, err
	}
	pred, err := s.predictor(src, isRef)
	if err != nil {
		return nil, err
	}
	if !isRef && s.InjectBias != 0 {
		pred = &biasPredictor{inner: pred, bias: s.InjectBias, after: s.InjectAfter}
	}
	pol, err := s.policy(isRef)
	if err != nil {
		return nil, err
	}
	proc, err := cpuFor(s)
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
		Horizon:               s.Horizon,
		Tasks:                 tasks,
		Source:                src,
		Predictor:             pred,
		Store:                 storage.New(s.Capacity, s.InitialFrac*s.Capacity),
		CPU:                   proc,
		Policy:                pol,
		ContinueAfterDeadline: s.ContinueAfterDeadline,
		ExecSeed:              s.ExecSeed,
		RecordEnergy:          true,
		Faults:                s.faults(),
		MaxEvents:             s.MaxEvents,
	}, nil
}

// Divergence describes a differential failure: the first (up to maxDiffs)
// field paths whose bits differ, plus both sides' full observability
// records for side-by-side dumping.
type Divergence struct {
	Spec  *Spec
	Diffs []string // "Result.BusyTime: 3.5 != 3.4999999999999996" style

	OptErr, RefErr error
	Opt, Ref       *sim.Result
	OptRec, RefRec *obs.Recorder
}

// Diverged reports whether the pair disagreed anywhere.
func (d *Divergence) Diverged() bool {
	return d != nil && len(d.Diffs) > 0
}

const maxDiffs = 24

// Check runs both engines on the spec and bit-compares everything:
// run errors (by message, and an *EventBudgetError field by field),
// decision audits, engine event streams, and the exported Result fields.
// The optimized engine runs twice — traced, and untraced with no probe —
// because it takes shortcuts only when no probe watches (quiet unit
// boundaries), and each run must match the reference. It returns nil when
// the runs are bit-identical, and a populated Divergence otherwise. A
// setup error (invalid spec) is returned as err.
func Check(s *Spec) (*Divergence, error) {
	opt, ref, err := s.Pair()
	if err != nil {
		return nil, err
	}
	// The untraced run (no probe, no checker) is the configuration every
	// benchmark, cache key and digest uses.
	untraced, err := s.config(false)
	if err != nil {
		return nil, err
	}
	optRec, refRec := obs.NewRecorder(), obs.NewRecorder()
	opt.Probe, ref.Probe = optRec, refRec

	optRes, optErr := sim.Run(opt)
	refRes, refErr := refimpl.Run(ref)
	untracedRes, untracedErr := sim.Run(untraced)

	d := &Divergence{
		Spec:   s,
		OptErr: optErr, RefErr: refErr,
		Opt: optRes, Ref: refRes,
		OptRec: optRec, RefRec: refRec,
	}
	if diffOutcome("", optRes, optErr, refRes, refErr, &d.Diffs) {
		bitDiff("Decisions", reflect.ValueOf(optRec.Decisions()), reflect.ValueOf(refRec.Decisions()), &d.Diffs)
		bitDiff("Events", reflect.ValueOf(optRec.Events()), reflect.ValueOf(refRec.Events()), &d.Diffs)
	}
	diffOutcome("Untraced.", untracedRes, untracedErr, refRes, refErr, &d.Diffs)
	if !d.Diverged() {
		return nil, nil
	}
	return d, nil
}

// diffOutcome bit-compares one optimized run's outcome with the
// reference's: the error's presence and message, an *EventBudgetError's
// every field, then the Result. It reports false when the outcomes differ
// in kind (error against none, different message, result presence), so
// nothing further is worth comparing.
func diffOutcome(path string, a *sim.Result, aErr error, b *sim.Result, bErr error, out *[]string) bool {
	if (aErr == nil) != (bErr == nil) {
		*out = append(*out, fmt.Sprintf("%serror: %v != %v", path, aErr, bErr))
		return false
	}
	if aErr != nil && aErr.Error() != bErr.Error() {
		*out = append(*out, fmt.Sprintf("%serror: %q != %q", path, aErr, bErr))
		return false
	}
	var ab, bb *sim.EventBudgetError
	if errors.As(aErr, &ab) != errors.As(bErr, &bb) {
		*out = append(*out, fmt.Sprintf("%serror type: %T != %T", path, aErr, bErr))
		return false
	}
	if ab != nil {
		bitDiff(path+"EventBudgetError", reflect.ValueOf(*ab), reflect.ValueOf(*bb), out)
	}
	if (a == nil) != (b == nil) {
		*out = append(*out, fmt.Sprintf("%sresult presence: %v != %v", path, a != nil, b != nil))
		return false
	}
	if a != nil {
		bitDiff(path+"Result", reflect.ValueOf(*a), reflect.ValueOf(*b), out)
	}
	return true
}

// bitDiff walks two values of identical type and records every path where
// they differ — floats compared by math.Float64bits (so +Inf, -0 and NaN
// payloads all count), everything else by language equality. Unexported
// fields are skipped: they are implementation detail the reference engine
// legitimately does not reproduce (e.g. the Welford accumulator inside
// sim.TaskStats, whose exported projections ResponseMean/ResponseMax are
// compared instead).
func bitDiff(path string, a, b reflect.Value, out *[]string) {
	if len(*out) >= maxDiffs {
		return
	}
	if a.Type() != b.Type() {
		*out = append(*out, fmt.Sprintf("%s: type %v != %v", path, a.Type(), b.Type()))
		return
	}
	switch a.Kind() {
	case reflect.Float64, reflect.Float32:
		af, bf := a.Float(), b.Float()
		if math.Float64bits(af) != math.Float64bits(bf) {
			*out = append(*out, fmt.Sprintf("%s: %v != %v (bits %016x != %016x)",
				path, af, bf, math.Float64bits(af), math.Float64bits(bf)))
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			*out = append(*out, fmt.Sprintf("%s: %d != %d", path, a.Int(), b.Int()))
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if a.Uint() != b.Uint() {
			*out = append(*out, fmt.Sprintf("%s: %d != %d", path, a.Uint(), b.Uint()))
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			*out = append(*out, fmt.Sprintf("%s: %v != %v", path, a.Bool(), b.Bool()))
		}
	case reflect.String:
		if a.String() != b.String() {
			*out = append(*out, fmt.Sprintf("%s: %q != %q", path, a.String(), b.String()))
		}
	case reflect.Ptr:
		if a.IsNil() != b.IsNil() {
			*out = append(*out, fmt.Sprintf("%s: nil-ness %v != %v", path, a.IsNil(), b.IsNil()))
			return
		}
		if !a.IsNil() {
			bitDiff(path, a.Elem(), b.Elem(), out)
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			*out = append(*out, fmt.Sprintf("%s: len %d != %d", path, a.Len(), b.Len()))
			return
		}
		for i := 0; i < a.Len() && len(*out) < maxDiffs; i++ {
			bitDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i), out)
		}
	case reflect.Struct:
		t := a.Type()
		for i := 0; i < t.NumField() && len(*out) < maxDiffs; i++ {
			f := t.Field(i)
			if f.PkgPath != "" { // unexported
				continue
			}
			bitDiff(path+"."+f.Name, a.Field(i), b.Field(i), out)
		}
	case reflect.Interface:
		if a.IsNil() != b.IsNil() {
			*out = append(*out, fmt.Sprintf("%s: nil-ness %v != %v", path, a.IsNil(), b.IsNil()))
			return
		}
		if !a.IsNil() {
			bitDiff(path, a.Elem(), b.Elem(), out)
		}
	default:
		// Maps, chans, funcs do not occur in compared types; flag loudly
		// if a future Result field introduces one.
		*out = append(*out, fmt.Sprintf("%s: uncomparable kind %v", path, a.Kind()))
	}
}
