package main

import (
	"time"

	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/sched"
	"github.com/eadvfs/eadvfs/internal/storage"
)

// The engine layers are timed from the outside: each wrapper below
// implements one public interface the engine drives (sched.Policy,
// energy.Source, energy.Predictor, storage.Reservoir), forwards every call,
// counts it, and times a random sample of them with two clock reads.
// Nothing inside the program changes, so a traced run must produce the
// same bytes as an untraced one; the workloads check exactly that.
//
// A clock read costs tens of nanoseconds here, more than most of the calls
// it would time, so timing every call would both swamp and distort the
// engine. Instead one top-level call in samplePeriod is timed together with
// every wrapped call nested inside it (a policy's PredictEnergy, the inner
// policy under a reclaimer), and another one in samplePeriod times an
// empty pair of clock reads in the same place, which measures the clock
// cost to subtract where it is actually paid.

// layer names one timed slice of the engine.
type layer int

const (
	layerDecide  layer = iota // sched.Policy.Decide of the paper's policy (inner policy under a reclaimer)
	layerReclaim              // workload.Reclaimer's own work: outer Decide minus the inner one
	layerPredict              // energy.Predictor.PredictEnergy
	layerObserve              // energy.Predictor.Observe
	layerSource               // energy.Source.PowerAt and CumulativeEnergy
	layerFlow                 // storage.Reservoir.Flow and Draw (state changes)
	layerQuery                // storage.Reservoir reads: TimeToEmpty, Level, Capacity, Meters, ConservationError
	numLayers
)

// layerMetric is each layer's metric-name prefix.
var layerMetric = [numLayers]string{
	"sched.decide", "workload.reclaim", "energy.predict", "energy.observe",
	"energy.source", "storage.flow", "storage.query",
}

// layerGroup maps each layer to the share it counts towards; the reclaim
// decorator is a scheduling policy, so it counts as scheduling.
var layerGroup = [numLayers]string{
	"sched", "sched", "energy", "energy", "energy", "storage", "storage",
}

// samplePeriod is the mean number of top-level wrapped calls per timed one.
const samplePeriod = 16

// tracer accumulates call counts and sampled self times on one goroutine.
// A timed call's self time is its duration minus the durations of the
// wrapped calls nested inside it.
type tracer struct {
	epoch  time.Time
	rnd    uint64 // xorshift state of the sampling decision
	depth  int    // nesting depth of wrapped calls, timed or not
	timing bool   // the current top-level call is being timed
	stack  []frame
	stat   [numLayers]layerStat
	null   layerStat // empty clock-read pairs: the in-place clock cost
}

type frame struct {
	start int64 // clock at entry
	child int64 // summed durations of nested timed calls
	kids  int64 // number of nested timed calls
}

type layerStat struct {
	calls int64 // every call
	timed int64 // calls that were timed
	kids  int64 // timed calls nested inside this layer's timed calls
	raw   int64 // timed self time in ns, clock cost still included
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), rnd: 0x9e3779b97f4a7c15, stack: make([]frame, 0, 8)}
}

// now reads the monotonic clock; time.Since of a monotonic epoch costs one
// runtime clock read.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin counts a call of layer l and reports whether it is timed.
func (t *tracer) begin(l layer) bool {
	t.stat[l].calls++
	if t.depth == 0 {
		t.rnd ^= t.rnd << 13
		t.rnd ^= t.rnd >> 7
		t.rnd ^= t.rnd << 17
		switch t.rnd % samplePeriod {
		case 0:
			t.timing = true
		case 1:
			a := t.now()
			b := t.now()
			t.null.raw += b - a
			t.null.timed++
			t.timing = false
		default:
			t.timing = false
		}
	}
	t.depth++
	if t.timing {
		t.stack = append(t.stack, frame{start: t.now()})
	}
	return t.timing
}

// end closes a call begun with begin.
func (t *tracer) end(l layer, timed bool) {
	t.depth--
	if !timed {
		return
	}
	now := t.now()
	top := len(t.stack) - 1
	f := t.stack[top]
	t.stack = t.stack[:top]
	total := now - f.start
	s := &t.stat[l]
	s.timed++
	s.kids += f.kids
	s.raw += total - f.child
	if top > 0 {
		p := &t.stack[top-1]
		p.child += total
		p.kids++
	}
}

// clockIn is the measured clock cost inside a timed interval, in ns.
func (t *tracer) clockIn() float64 {
	if t.null.timed == 0 {
		return 0
	}
	return float64(t.null.raw) / float64(t.null.timed)
}

// nestedCost is the instrumentation a timed nested call adds to its
// caller's interval beyond what the call's own duration shows: its entry
// and exit bookkeeping and the rest of its two clock reads. Measured on
// empty wrapped calls.
func nestedCost() float64 {
	const n = 100000
	t := newTracer()
	t.timing, t.depth = true, 1 // everything below is a nested timed call
	t.stack = append(t.stack, frame{})
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(layerDecide, t.begin(layerDecide))
	}
	full := float64(time.Since(start)) / n
	return full - float64(t.stat[layerDecide].raw)/n
}

// perCallNs returns layer l's mean self time per call with the clock cost
// removed: each timed call carries one in-interval clock cost, and each
// timed call nested in it carries the rest of its instrumentation.
func (t *tracer) perCallNs(l layer, nested float64) float64 {
	s := t.stat[l]
	if s.timed == 0 {
		return 0
	}
	self := float64(s.raw) - float64(s.timed)*t.clockIn() - float64(s.kids)*nested
	return self / float64(s.timed)
}

// timedPolicy times a scheduling policy's Decide.
type timedPolicy struct {
	sched.Policy
	t *tracer
	l layer
}

func (p timedPolicy) Decide(ctx *sched.Context) sched.Decision {
	on := p.t.begin(p.l)
	d := p.Policy.Decide(ctx)
	p.t.end(p.l, on)
	return d
}

// timedPredictor times a harvest predictor.
type timedPredictor struct {
	energy.Predictor
	t *tracer
}

func (p timedPredictor) Observe(t, pw float64) {
	on := p.t.begin(layerObserve)
	p.Predictor.Observe(t, pw)
	p.t.end(layerObserve, on)
}

func (p timedPredictor) PredictEnergy(t1, t2 float64) float64 {
	on := p.t.begin(layerPredict)
	e := p.Predictor.PredictEnergy(t1, t2)
	p.t.end(layerPredict, on)
	return e
}

// timedSource times a harvesting source. It implements energy.Cumulative
// itself, so consumers that type-assert for the O(1) prefix query (the
// oracle predictor, energy.Energy) keep taking that path.
type timedSource struct {
	energy.Cumulative
	t *tracer
}

func (s timedSource) PowerAt(at float64) float64 {
	on := s.t.begin(layerSource)
	p := s.Cumulative.PowerAt(at)
	s.t.end(layerSource, on)
	return p
}

func (s timedSource) CumulativeEnergy(at float64) float64 {
	on := s.t.begin(layerSource)
	e := s.Cumulative.CumulativeEnergy(at)
	s.t.end(layerSource, on)
	return e
}

// timedStore times an energy reservoir.
type timedStore struct {
	inner storage.Reservoir
	t     *tracer
}

func (s timedStore) Flow(ps, pc, dt float64) (float64, float64) {
	on := s.t.begin(layerFlow)
	d, o := s.inner.Flow(ps, pc, dt)
	s.t.end(layerFlow, on)
	return d, o
}

func (s timedStore) Draw(e float64) float64 {
	on := s.t.begin(layerFlow)
	d := s.inner.Draw(e)
	s.t.end(layerFlow, on)
	return d
}

func (s timedStore) TimeToEmpty(ps, pc float64) float64 {
	on := s.t.begin(layerQuery)
	d := s.inner.TimeToEmpty(ps, pc)
	s.t.end(layerQuery, on)
	return d
}

func (s timedStore) Level() float64 {
	on := s.t.begin(layerQuery)
	v := s.inner.Level()
	s.t.end(layerQuery, on)
	return v
}

func (s timedStore) Capacity() float64 {
	on := s.t.begin(layerQuery)
	v := s.inner.Capacity()
	s.t.end(layerQuery, on)
	return v
}

func (s timedStore) Meters() storage.Meters {
	on := s.t.begin(layerQuery)
	m := s.inner.Meters()
	s.t.end(layerQuery, on)
	return m
}

func (s timedStore) ConservationError(initial float64) float64 {
	on := s.t.begin(layerQuery)
	v := s.inner.ConservationError(initial)
	s.t.end(layerQuery, on)
	return v
}
