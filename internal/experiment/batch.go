package experiment

import (
	"context"

	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/sim"
	"github.com/eadvfs/eadvfs/internal/storage"
)

// Runner amortizes per-(spec, replication) run setup across many runs of
// the same replication: the predictor name is resolved once, the (immutable)
// processor is built once, and the solar trace is realized once — by
// NewRunner, on the goroutine that will run it, unless the caller already
// prepared the replication — and a single fork of it is reused run to
// run. Every run executes on an arena from sim.Run's pool, which gives
// each worker goroutine its own warm arena. RunOne re-derives the
// predictor, processor and fork per run — it builds a Runner for every
// run, since Runner.config is the package's one run builder; over a
// capacity bisection or a batch of sweep columns the difference is most
// of the non-engine cost.
//
// Each run is bit-identical to the corresponding RunOne: a prepared
// SolarModel fork is a pure function of time (power queries within the
// realized prefix never mutate it, prefix queries only extend the fork's
// own prefix-sum memo, and sequential extension realizes the same samples
// a fresh fork would). With the oracle predictor the reused fork builds
// its prefix table once per replication, not once per run.
//
// A Runner is single-goroutine: its runs share one fork, so they execute
// sequentially. Fan replication-level parallelism out with one Runner per
// worker.
type Runner struct {
	spec  Spec
	rep   Replication
	predF PredictorFactory
	proc  *cpu.Processor
	src   *energy.SolarModel
}

// NewRunner prepares an amortized runner for one replication of the spec.
// The replication's solar master is prepared through the horizon (a no-op
// when the caller already did) and forked once. rep is a copy, so the
// master it prepares is the runner's alone and goes away with it.
func NewRunner(s Spec, rep Replication) (*Runner, error) {
	rep.PrepareSource(s.Horizon)
	r, err := newRunner(s, rep)
	if err != nil {
		return nil, err
	}
	return &r, nil
}

// newRunner resolves the run material of one (spec, replication) pair:
// the spec's predictor (with its smoothing override), its processor and
// one fork of the replication's solar source. RunOne builds one per run.
func newRunner(s Spec, rep Replication) (Runner, error) {
	predF, err := s.PredictorFor(s.Predictor)
	if err != nil {
		return Runner{}, err
	}
	return Runner{spec: s, rep: rep, predF: predF, proc: s.Processor(), src: rep.Source()}, nil
}

// config builds the sim.Config of one run — the only place the experiment
// package builds one: the replication's task set, solar path and
// execution seed, the spec's processor and predictor, a full ideal store
// of the given capacity, a fresh policy from pf, the event-budget
// watchdog and the spec's probe. record enables the per-unit energy
// series; a ctx that can be cancelled is handed to the engine. A sweep
// that varies something the spec cannot express (a cubic processor, a
// fault schedule) sets that field on the returned config.
func (r *Runner) config(ctx context.Context, capacity float64, pf PolicyFactory, record bool) *sim.Config {
	cfg := &sim.Config{
		Horizon:      r.spec.Horizon,
		Tasks:        r.rep.Tasks,
		Source:       r.src,
		Predictor:    r.predF(r.src),
		Store:        storage.NewIdeal(capacity),
		CPU:          r.proc,
		Policy:       pf(),
		RecordEnergy: record,
		ExecSeed:     execSeedOf(r.rep),
		MaxEvents:    defaultEventBudget(r.spec.Horizon),
		Probe:        r.spec.Probe,
	}
	if ctx != nil && ctx.Done() != nil {
		cfg.Context = ctx
	}
	return cfg
}

// run executes cfg on a pooled arena and feeds the spec's run
// observability.
func (r *Runner) run(cfg *sim.Config) (*sim.Result, error) {
	res, err := sim.Run(cfg)
	r.spec.recordRun(res)
	return res, err
}

// RunCtx executes one run of the runner's replication at the given
// capacity under a fresh policy from pf. record enables the per-unit
// energy series; stopAtFirstMiss enables the feasibility-probe early exit
// (sim.Config.StopAtFirstMiss — the Result is then a prefix ending at the
// first miss, and the spec's run metrics record that prefix).
func (r *Runner) RunCtx(ctx context.Context, capacity float64, pf PolicyFactory, record, stopAtFirstMiss bool) (*sim.Result, error) {
	cfg := r.config(ctx, capacity, pf, record)
	cfg.StopAtFirstMiss = stopAtFirstMiss
	return r.run(cfg)
}

// RunBatch executes one replication's full (capacity × policy) grid on a
// single amortized Runner and returns results indexed [capacity][policy].
// It is the batched equivalent of calling RunOne per cell — each cell
// is bit-identical — with the predictor, processor and solar realization
// resolved once for the whole grid instead of once per cell.
func RunBatch(ctx context.Context, s Spec, rep Replication, capacities []float64, pfs []PolicyFactory, record bool) ([][]*sim.Result, error) {
	r, err := NewRunner(s, rep)
	if err != nil {
		return nil, err
	}
	out := make([][]*sim.Result, len(capacities))
	for ci, c := range capacities {
		out[ci] = make([]*sim.Result, len(pfs))
		for pi, pf := range pfs {
			res, err := r.RunCtx(ctx, c, pf, record, false)
			if err != nil {
				return nil, err
			}
			out[ci][pi] = res
		}
	}
	return out, nil
}
