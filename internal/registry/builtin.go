package registry

import (
	"fmt"

	"github.com/eadvfs/eadvfs/internal/core"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/refimpl"
	"github.com/eadvfs/eadvfs/internal/rng"
	"github.com/eadvfs/eadvfs/internal/sched"
	"github.com/eadvfs/eadvfs/internal/task"
)

// Built-in registrations. Order matters: enumeration is registration
// order, and eadvfs.Policies()/Predictors() pin today's order as public
// API (example output is golden-tested).

func floatPtr(f float64) *float64 { return &f }

func init() {
	registerBuiltinPolicies()
	registerBuiltinSources()
	registerBuiltinPredictors()
	registerBuiltinTaskModels()
}

func registerBuiltinPolicies() {
	RegisterPolicy(PolicyDef{
		Name: "ea-dvfs",
		Help: "the paper's EA-DVFS (§4): stretch to the deadline when stored energy suffices, lock s2 otherwise",
		New:  func(Params) (sched.Policy, error) { return core.NewEADVFS(), nil },
		Ref:  func(Params) (sched.Policy, error) { return refimpl.NewEADVFS(), nil },
	})
	RegisterPolicy(PolicyDef{
		Name: "ea-dvfs-dynamic",
		Help: "ablation: EA-DVFS with s2 recomputed at every decision instead of locked per job",
		New:  func(Params) (sched.Policy, error) { return core.NewDynamicEADVFS(), nil },
		Ref:  func(Params) (sched.Policy, error) { return refimpl.NewDynamicEADVFS(), nil },
	})
	RegisterPolicy(PolicyDef{
		Name: "lsa",
		Help: "lazy scheduling (Moser et al.), the paper's baseline",
		New:  func(Params) (sched.Policy, error) { return sched.LSA{}, nil },
		Ref:  func(Params) (sched.Policy, error) { return refimpl.LSA{}, nil },
	})
	RegisterPolicy(PolicyDef{
		Name: "edf",
		Help: "energy-oblivious earliest deadline first",
		New:  func(Params) (sched.Policy, error) { return sched.EDF{}, nil },
		Ref:  func(Params) (sched.Policy, error) { return refimpl.EDF{}, nil },
	})
	RegisterPolicy(PolicyDef{
		Name: "static-dvfs",
		Help: "fixed operating point sized to the task-set utilization; never adapts",
		Params: []Param{{
			Name: "utilization", Type: TypeFloat, Default: 0.4,
			Help: "target utilization the fixed operating point is sized for",
			Min:  floatPtr(0), Max: floatPtr(1),
		}},
		New: func(p Params) (sched.Policy, error) {
			return sched.StaticDVFS{Utilization: p.Float("utilization", 0.4)}, nil
		},
	})
	RegisterPolicy(PolicyDef{
		Name: "greedy-stretch",
		Help: "ablation: stretches every job to its deadline without the §4.3 energy guard",
		New:  func(Params) (sched.Policy, error) { return sched.GreedyStretch{}, nil },
	})
}

func registerBuiltinSources() {
	RegisterSource(SourceDef{
		Name: "solar",
		Help: "the paper's eq. (13) stochastic solar model",
		Params: []Param{
			{Name: "seed", Type: TypeUint, Default: 0, Help: "sample-path seed (the seed is the trace's identity)"},
			{Name: "amplitude", Type: TypeFloat, Default: 10.0, Min: floatPtr(0),
				Help: "envelope amplitude; 10 is the calibrated default"},
		},
		New: func(p Params) (energy.Source, error) {
			return energy.NewSolarModelAmpChecked(p.Uint64("seed", 0), p.Float("amplitude", 10))
		},
	})
	RegisterSource(SourceDef{
		Name: "constant",
		Help: "constant-power source",
		Params: []Param{{
			Name: "power", Type: TypeFloat, Required: true, Min: floatPtr(0),
			Help: "harvested power, in the experiment's energy units per time unit",
		}},
		New: func(p Params) (energy.Source, error) {
			return energy.NewConstantChecked(p.Float("power", 0))
		},
	})
	RegisterSource(SourceDef{
		Name: "two-mode",
		Help: "square-wave day/night source",
		Params: []Param{
			{Name: "day", Type: TypeFloat, Required: true, Help: "daytime power"},
			{Name: "night", Type: TypeFloat, Required: true, Help: "nighttime power"},
			{Name: "period", Type: TypeFloat, Required: true, Help: "full day length"},
			{Name: "day_len", Type: TypeFloat, Required: true, Help: "daytime length within each period"},
		},
		New: func(p Params) (energy.Source, error) {
			return energy.NewTwoModeChecked(
				p.Float("day", 0), p.Float("night", 0), p.Float("period", 0), p.Float("day_len", 0))
		},
	})
	RegisterSource(SourceDef{
		Name: "trace",
		Help: "replayed power trace, one sample per time unit, wrapping",
		Params: []Param{
			{Name: "samples", Type: TypeFloats, Required: true, Help: "power samples"},
		},
		New: func(p Params) (energy.Source, error) {
			return energy.NewTraceChecked(p.Floats("samples"))
		},
	})
}

func registerBuiltinPredictors() {
	RegisterPredictor(PredictorDef{
		Name: "ewma",
		Help: "exponentially weighted moving average of observed power (the default)",
		Params: []Param{{
			Name: "alpha", Type: TypeFloat, Default: 0.2, Help: "smoothing factor in (0, 1]",
		}},
		New: func(p Params) (PredictorFactory, error) {
			alpha := p.Float("alpha", 0.2)
			if _, err := energy.NewEWMAChecked(alpha); err != nil {
				return nil, err
			}
			return func(energy.Source) energy.Predictor { return energy.NewEWMA(alpha) }, nil
		},
		Ref: func(p Params) (PredictorFactory, error) {
			alpha := p.Float("alpha", 0.2)
			if _, err := energy.NewEWMAChecked(alpha); err != nil {
				return nil, err
			}
			return func(energy.Source) energy.Predictor { return refimpl.NewEWMA(alpha) }, nil
		},
	})
	RegisterPredictor(PredictorDef{
		Name: "oracle",
		Help: "perfect foresight: integrates the source itself",
		New: func(Params) (PredictorFactory, error) {
			return func(src energy.Source) energy.Predictor { return energy.NewOracle(src) }, nil
		},
		Ref: func(Params) (PredictorFactory, error) {
			return func(src energy.Source) energy.Predictor { return refimpl.NewOracle(src) }, nil
		},
	})
	RegisterPredictor(PredictorDef{
		Name: "slot-ewma",
		Help: "per-slot EWMA over a periodic envelope (diurnal profile learner)",
		Params: []Param{
			{Name: "period", Type: TypeFloat, Default: energy.EnvelopePeriod, Help: "envelope period"},
			{Name: "slots", Type: TypeInt, Default: 64, Min: floatPtr(1), Help: "slots per period"},
			{Name: "alpha", Type: TypeFloat, Default: 0.3, Help: "per-slot smoothing factor in (0, 1]"},
		},
		New: func(p Params) (PredictorFactory, error) {
			period := p.Float("period", energy.EnvelopePeriod)
			slots := p.Int("slots", 64)
			alpha := p.Float("alpha", 0.3)
			if _, err := energy.NewSlotEWMAChecked(period, slots, alpha); err != nil {
				return nil, err
			}
			return func(energy.Source) energy.Predictor {
				return energy.NewSlotEWMA(period, slots, alpha)
			}, nil
		},
	})
	RegisterPredictor(PredictorDef{
		Name: "wcma",
		Help: "weather-conditioned moving average over recent days",
		Params: []Param{
			{Name: "period", Type: TypeFloat, Default: energy.EnvelopePeriod, Help: "day length"},
			{Name: "slots", Type: TypeInt, Default: 48, Min: floatPtr(1), Help: "slots per day"},
			{Name: "days", Type: TypeInt, Default: 4, Min: floatPtr(1), Help: "days of history"},
			{Name: "k", Type: TypeInt, Default: 8, Min: floatPtr(1), Help: "conditioning window, in slots"},
		},
		New: func(p Params) (PredictorFactory, error) {
			period := p.Float("period", energy.EnvelopePeriod)
			slots := p.Int("slots", 48)
			days := p.Int("days", 4)
			k := p.Int("k", 8)
			if period <= 0 {
				return nil, fmt.Errorf("energy: wcma period %v <= 0", period)
			}
			return func(energy.Source) energy.Predictor {
				return energy.NewWCMA(period, slots, days, k)
			}, nil
		},
	})
	RegisterPredictor(PredictorDef{
		Name: "moving-average",
		Help: "uniform moving average of the last window observations",
		Params: []Param{{
			Name: "window", Type: TypeInt, Default: 30, Min: floatPtr(1), Help: "observation window",
		}},
		New: func(p Params) (PredictorFactory, error) {
			window := p.Int("window", 30)
			if _, err := energy.NewMovingAverageChecked(window); err != nil {
				return nil, err
			}
			return func(energy.Source) energy.Predictor {
				return energy.NewMovingAverage(window)
			}, nil
		},
	})
	RegisterPredictor(PredictorDef{
		Name: "last-value",
		Help: "persistence forecast: the last observed power holds",
		New: func(Params) (PredictorFactory, error) {
			return func(energy.Source) energy.Predictor { return energy.NewLastValue() }, nil
		},
		Ref: func(Params) (PredictorFactory, error) {
			return func(energy.Source) energy.Predictor { return refimpl.NewLastValue() }, nil
		},
	})
	RegisterPredictor(PredictorDef{
		Name: "zero",
		Help: "predicts no future harvest (maximally conservative)",
		New: func(Params) (PredictorFactory, error) {
			return func(energy.Source) energy.Predictor { return energy.Zero{} }, nil
		},
		Ref: func(Params) (PredictorFactory, error) {
			return func(energy.Source) energy.Predictor { return refimpl.Zero{} }, nil
		},
	})
}

func registerBuiltinTaskModels() {
	RegisterTaskModel(TaskModelDef{
		Name: "periodic",
		Help: "the paper's §5.1 periodic workload: periods from a menu, energies U[0, P̄s·T], WCETs scaled to the target utilization",
		Params: []Param{{
			Name: "periods", Type: TypeFloats,
			Help: "period menu; defaults to the paper's {10, 20, …, 100}",
		}},
		Generate: func(g TaskGen, p Params, r *rng.RNG) ([]task.Task, error) {
			periods := p.Floats("periods")
			if len(periods) == 0 {
				periods = task.PaperPeriods()
			}
			return task.Generate(task.GeneratorConfig{
				NumTasks:         g.NumTasks,
				Periods:          periods,
				MeanHarvestPower: g.MeanHarvestPower,
				PMax:             g.PMax,
				TargetU:          g.TargetU,
			}, r)
		},
	})
}
