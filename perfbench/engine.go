package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"github.com/eadvfs/eadvfs/internal/core"
	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/experiment"
	"github.com/eadvfs/eadvfs/internal/refimpl"
	"github.com/eadvfs/eadvfs/internal/registry"
	"github.com/eadvfs/eadvfs/internal/rng"
	"github.com/eadvfs/eadvfs/internal/sched"
	"github.com/eadvfs/eadvfs/internal/sim"
	"github.com/eadvfs/eadvfs/internal/storage"
	"github.com/eadvfs/eadvfs/internal/workload"
)

// Engine workload shape: 120 replications × 2 policies × 3 capacities, one
// sim.Run per op, replication index varying fastest so consecutive ops
// touch different solar tables. The mean cost of 120 replications moves by
// about 1% from one seed to the next (of 40, by 4%), so runs of different
// seeds measure the same work.
const (
	engineReps       = 120
	engineRefSamples = 2  // ops re-run on the reference engine after the window
	engineDigestOps  = 64 // first ops whose outputs the run digest covers
	// traceBlocks is how many blocks a rotation splits into in a traced
	// run. Blocks alternate traced and untraced, so both kinds start
	// within a second, and an odd count flips every cell from one rotation
	// to the next, so each cell runs both ways.
	traceBlocks = 9
)

// tracedOp reports whether op i of a traced run is traced.
func tracedOp(i, rotation int) bool { return (i/max(1, rotation/traceBlocks))%2 == 0 }

// engineVariant is what separates engine from engine-variable.
type engineVariant struct {
	spec     experiment.Spec
	policies []string
	caps     []float64
	// inner returns the undecorated policy of a reclaiming registration, or
	// nil for a plain policy; traced runs rebuild the reclaimer around a
	// timed inner policy so the decorator's own cost can be told apart.
	inner func(name string) sched.Policy
}

func wcetVariant(seed uint64) engineVariant {
	s := experiment.DefaultSpec()
	s.Seed = seed
	s.Replications = engineReps
	return engineVariant{spec: s, policies: []string{"ea-dvfs", "lsa"}, caps: []float64{200, 1000, 5000}}
}

func stochasticVariant(seed uint64) engineVariant {
	v := wcetVariant(seed)
	v.spec.TaskModel = "stochastic-periodic"
	v.spec.TaskParams = map[string]any{"bc_ratio": 0.25}
	v.spec.Sleep = "default"
	v.policies = []string{"ea-dvfs-reclaim", "lsa-reclaim"}
	// Not 200: with sleep states, a 200 J store sometimes empties inside a
	// flow interval and storage.Flow panics (about one replication in a
	// hundred); 500 J and up never did over 330 seeds.
	v.caps = []float64{500, 1000, 5000}
	v.inner = func(name string) sched.Policy {
		if name == "lsa-reclaim" {
			return sched.LSA{}
		}
		return core.NewEADVFS()
	}
	return v
}

// reclaimAlpha and reclaimMinRatio are the registered defaults of the
// reclaiming policies; the traced rebuild must match them, which the
// per-op output comparison enforces.
const (
	reclaimAlpha    = 0.5
	reclaimMinRatio = 0.1
)

type engineCell struct {
	rep, pol int
	capacity float64
}

type engineFixture struct {
	v         engineVariant
	reps      []experiment.Replication
	factories []experiment.PolicyFactory
	predictor experiment.PredictorFactory
	proc      *cpu.Processor
	cells     []engineCell
}

func newEngineFixture(v engineVariant) (*engineFixture, error) {
	f := &engineFixture{v: v, proc: v.spec.Processor()}
	var err error
	if f.factories, err = v.spec.Policies(v.policies); err != nil {
		return nil, err
	}
	if f.predictor, err = v.spec.PredictorFor(v.spec.Predictor); err != nil {
		return nil, err
	}
	f.reps = make([]experiment.Replication, v.spec.Replications)
	for r := range f.reps {
		if f.reps[r], err = experiment.Replicate(v.spec, r); err != nil {
			return nil, err
		}
		f.reps[r].PrepareSource(v.spec.Horizon)
	}
	for pi := range v.policies {
		for _, c := range v.caps {
			for r := range f.reps {
				f.cells = append(f.cells, engineCell{rep: r, pol: pi, capacity: c})
			}
		}
	}
	return f, nil
}

// execSeed decorrelates a replication's execution-time draws from its
// solar sample path.
func execSeed(rep *experiment.Replication) uint64 { return rep.SourceSeed ^ 0x9e3779b97f4a7c15 }

// config builds op i's run with a fresh store, predictor and policy; with
// a tracer every engine-facing interface is wrapped.
func (f *engineFixture) config(i int, tr *tracer) *sim.Config {
	c := f.cells[i%len(f.cells)]
	rep := &f.reps[c.rep]
	src := rep.Source()
	cfg := &sim.Config{
		Horizon:   f.v.spec.Horizon,
		Tasks:     rep.Tasks,
		Source:    src,
		Predictor: f.predictor(src),
		Store:     storage.NewIdeal(c.capacity),
		CPU:       f.proc,
		Policy:    f.factories[c.pol](),
		ExecSeed:  execSeed(rep),
	}
	if tr == nil {
		return cfg
	}
	cfg.Source = timedSource{Cumulative: src, t: tr}
	cfg.Predictor = timedPredictor{Predictor: cfg.Predictor, t: tr}
	cfg.Store = timedStore{inner: cfg.Store, t: tr}
	name := f.v.policies[c.pol]
	if f.v.inner != nil {
		inner := timedPolicy{Policy: f.v.inner(name), t: tr, l: layerDecide}
		cfg.Policy = timedPolicy{Policy: workload.NewReclaimer(name, inner, reclaimAlpha, reclaimMinRatio), t: tr, l: layerReclaim}
	} else {
		cfg.Policy = timedPolicy{Policy: cfg.Policy, t: tr, l: layerDecide}
	}
	return cfg
}

// refConfig builds op i's run for the reference engine: the registered
// reference policy and predictor, everything else as in config.
func (f *engineFixture) refConfig(i int) (*sim.Config, error) {
	c := f.cells[i%len(f.cells)]
	rep := &f.reps[c.rep]
	pdef, err := registry.Policy(f.v.policies[c.pol])
	if err != nil {
		return nil, err
	}
	pf, err := pdef.RefFactory(nil)
	if err != nil {
		return nil, err
	}
	ddef, err := registry.Predictor(f.v.spec.Predictor)
	if err != nil {
		return nil, err
	}
	predF, err := ddef.RefFactory(nil)
	if err != nil {
		return nil, err
	}
	src := energy.NewSolarModel(rep.SourceSeed)
	return &sim.Config{
		Horizon:   f.v.spec.Horizon,
		Tasks:     rep.Tasks,
		Source:    src,
		Predictor: predF(src),
		Store:     storage.NewIdeal(c.capacity),
		CPU:       f.proc,
		Policy:    pf(),
		ExecSeed:  execSeed(rep),
	}, nil
}

func runEngine(o options) (*report, error) { return runEngineWith(o, wcetVariant(o.seed)) }

func runEngineVariable(o options) (*report, error) {
	return runEngineWith(o, stochasticVariant(o.seed))
}

// engineOp is one measured op.
type engineOp struct {
	timed
	traced bool
	events uint64
}

func runEngineWith(o options, v engineVariant) (*report, error) {
	r := newReport()
	cal := &calibrator{}
	f, err := setup(r, cal, func(int) (*engineFixture, error) {
		f, err := newEngineFixture(v)
		if err != nil {
			return nil, err
		}
		// Warm-up op: fills the engine's arena pool.
		if _, err := sim.Run(f.config(0, nil)); err != nil {
			return nil, err
		}
		return f, nil
	}, nil)
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	rotation := len(f.cells)
	want := make([][32]byte, rotation) // per-cell output hash from the first rotation
	dig := newDigester(engineDigestOps)
	ops := make([]engineOp, 0, 4096)
	var counts struct{ decisions, preemptions, early, wakeups int64 }
	var sleep float64

	m := startMeter()
	n := closedLoop(o.seconds, cal, func(i int) {
		traced := tr != nil && tracedOp(i, rotation)
		var t *tracer
		if traced {
			t = tr
		}
		start := time.Now()
		res, err := sim.Run(f.config(i, t))
		lat := time.Since(start)
		r.attempted++
		if err != nil {
			r.failed++
			r.check("engine.run", false, "op %d: %v", i, err)
			return
		}
		b, err := json.Marshal(res)
		if err != nil {
			r.failed++
			r.check("engine.marshal", false, "op %d: %v", i, err)
			return
		}
		sum := sha256.Sum256(b)
		dig.add(i, b)
		if i < rotation {
			want[i] = sum
		} else if sum != want[i%rotation] {
			r.failed++
			r.check("engine.repeat", false, "op %d (cell %d, traced=%v) differs from its first run", i, i%rotation, traced)
		}
		ops = append(ops, engineOp{timed: timed{start, lat}, traced: traced, events: res.Events})
		counts.decisions += int64(res.Decisions)
		counts.preemptions += int64(res.Preemptions)
		counts.early += int64(res.Slack.EarlyCompletions)
		counts.wakeups += int64(res.Wakeups)
		sleep += res.SleepTime / v.spec.Horizon
	})
	m.finish(r, cal, n)
	dig.finish(r)

	// Reference-engine agreement on seeded sample cells.
	pick := rng.New(o.seed).Child(streamSample)
	for k := 0; k < engineRefSamples && n > 0; k++ {
		i := pick.Intn(min(n, rotation))
		ok, detail := f.agreesWithReference(i)
		r.check("engine.refimpl", ok, "cell %d: %s", i, detail)
	}

	cal.check(r)
	all := make([]timed, len(ops))
	var untraced, traced []float64
	var events float64
	var split opSplit
	for i, op := range ops {
		all[i] = op.timed
		events += float64(op.events)
		if op.traced {
			traced = append(traced, ms(op.d))
			split.traced.add(op)
		} else {
			untraced = append(untraced, ms(op.d))
			split.untraced.add(op)
		}
	}
	r.setClosedLoop(cal, all)
	done := float64(len(ops))
	if len(ops) == 0 {
		return r, nil
	}
	r.set("sim.events_per_op", events/done, len(ops))
	r.set("sim.decisions_per_op", float64(counts.decisions)/done, len(ops))
	r.set("sim.preemptions_per_op", float64(counts.preemptions)/done, len(ops))
	r.set("sim.early_completions_per_op", float64(counts.early)/done, len(ops))
	r.set("cpu.wakeups_per_op", float64(counts.wakeups)/done, len(ops))
	r.set("cpu.sleep_share", sleep/done, len(ops))
	if split.untraced.events > 0 {
		r.set("sim.ns_per_event", split.untraced.ns/split.untraced.events, split.untraced.ops)
	}
	if tr != nil && len(traced) > 0 && len(untraced) > 0 {
		split.layers(tr, nestedCost()).report(r)
		r.set("trace.overhead_ratio", median(traced)/median(untraced), len(traced))
	}
	return r, nil
}

// opTotals sums a set of engine ops.
type opTotals struct {
	ops    int
	ns     float64
	events float64
}

func (t *opTotals) add(op engineOp) {
	t.ops++
	t.ns += float64(op.d)
	t.events += float64(op.events)
}

func (t opTotals) perOp(x float64) float64 { return x / float64(t.ops) }

// opSplit holds the traced and untraced halves of an engine run.
type opSplit struct{ traced, untraced opTotals }

// layerSplit is the mean op time of an engine run split by layer. The
// layer rows and sim.self add up to the untraced op time, and the
// instrumentation row (traced minus untraced op time) brings the sum to
// the traced op time; the shares are of the untraced op time and sum to 1.
type layerSplit struct {
	ops        int
	untracedNs float64 // mean untraced op time
	tracedNs   float64 // mean traced op time
	events     float64 // per op
	callsPerOp [numLayers]float64
	perCallNs  [numLayers]float64
	simSelfNs  float64 // per op: the engine's own code — event merge, ready queue, stats, probe guards, config construction
}

func (s opSplit) layers(tr *tracer, nested float64) layerSplit {
	ls := layerSplit{
		ops:        s.traced.ops,
		untracedNs: s.untraced.perOp(s.untraced.ns),
		tracedNs:   s.traced.perOp(s.traced.ns),
		events:     s.traced.perOp(s.traced.events),
	}
	ls.simSelfNs = ls.untracedNs
	for l := layer(0); l < numLayers; l++ {
		ls.callsPerOp[l] = s.traced.perOp(float64(tr.stat[l].calls))
		ls.perCallNs[l] = tr.perCallNs(l, nested)
		ls.simSelfNs -= ls.selfNs(l)
	}
	return ls
}

// selfNs is layer l's self time per op.
func (ls layerSplit) selfNs(l layer) float64 { return ls.callsPerOp[l] * ls.perCallNs[l] }

// share is a layer group's fraction of the untraced op time.
func (ls layerSplit) share(group string) float64 {
	var ns float64
	for l := layer(0); l < numLayers; l++ {
		if layerGroup[l] == group {
			ns += ls.selfNs(l)
		}
	}
	return ns / ls.untracedNs
}

func (ls layerSplit) report(r *report) {
	for l := layer(0); l < numLayers; l++ {
		if ls.callsPerOp[l] == 0 {
			continue
		}
		if l != layerReclaim { // the reclaimer makes exactly the decide calls
			r.set(layerMetric[l]+".calls_per_op", ls.callsPerOp[l], ls.ops)
		}
		r.set(layerMetric[l]+".ns_per_call", ls.perCallNs[l], ls.ops)
	}
	r.set("sim.self_ns_per_event", ls.simSelfNs/ls.events, ls.ops)
	r.set("sim.self_share", ls.simSelfNs/ls.untracedNs, ls.ops)
	for _, g := range []string{"sched", "energy", "storage"} {
		r.set(g+".share", ls.share(g), ls.ops)
	}
}

// agreesWithReference runs cell i on the optimized and the reference
// engine and compares the JSON of both results byte for byte.
func (f *engineFixture) agreesWithReference(i int) (bool, string) {
	opt, err := sim.Run(f.config(i, nil))
	if err != nil {
		return false, err.Error()
	}
	cfg, err := f.refConfig(i)
	if err != nil {
		return false, err.Error()
	}
	ref, err := refimpl.Run(cfg)
	if err != nil {
		return false, "reference: " + err.Error()
	}
	a, errA := json.Marshal(opt)
	b, errB := json.Marshal(ref)
	if errA != nil || errB != nil {
		return false, fmt.Sprintf("marshal: %v %v", errA, errB)
	}
	if !bytes.Equal(a, b) {
		return false, "optimized and reference results differ"
	}
	return true, "bit-identical to the reference engine"
}
