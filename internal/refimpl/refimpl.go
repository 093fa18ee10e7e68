// Package refimpl contains deliberately naive reference implementations
// of the optimized hot path: O(n) energy integration with no prefix sums
// or caching, a linear-scan event queue and ready list instead of the
// engine's deadline-check heap and binary ready heap, literal
// transcriptions of the EA-DVFS (§4, Figure 4) and LSA pseudocode, and an
// unpooled simulation loop that allocates a fresh scheduling context per
// decision.
//
// Nothing here is meant to be fast. The package exists so that
// internal/verify can run the optimized engine (internal/sim + friends)
// and this slow-but-obviously-correct oracle on identical inputs and
// assert bit-identical decision audits, event streams and Result metrics.
// Every future performance PR must keep that differential green: if a
// rewrite changes behaviour, the harness minimizes the diverging config
// and cmd/eaverify dumps both audit logs side by side.
//
// Bit-identity is achievable — not just epsilon-closeness — because the
// optimized layers were built as accumulation-order-preserving rewrites:
// the prefix-sum tables add unit powers left to right exactly like the
// naive walk (see energy.Cumulative's contract), the merged event streams
// order events by the same (time, priority, insertion) key as a linear
// scan, and the reused sched.Context holds the same values a fresh one
// would.
// DESIGN.md §11 spells out which outputs are bit-identical and which are
// only epsilon-close.
package refimpl

import (
	"math"

	"github.com/eadvfs/eadvfs/internal/energy"
)

// PrefixEnergy integrates src over [0, t] the slow way: walk every unit
// interval from zero, accumulating PowerAt·width left to right. This is
// the paper's ES(0, t) (eq. 2) computed straight from the definition —
// O(t) per call, no memoization.
//
// The left-to-right accumulation order is exactly the order in which the
// optimized prefix-sum tables (energy.SolarModel, energy.Cached) are
// built, so for any t the walk returns the same bits as the cached
// CumulativeEnergy(t). SolarModel builds its table on the first prefix
// query and extends it from where it stopped, so how far a model (or the
// master it was forked from) had summed before never changes those bits.
func PrefixEnergy(src energy.Source, t float64) float64 {
	if t < 0 {
		panic("refimpl: PrefixEnergy before t=0")
	}
	total := 0.0
	u := 0.0
	for u < t {
		end := math.Floor(u) + 1
		if end > t {
			end = t
		}
		total += float64(src.PowerAt(u) * (end - u))
		u = end
	}
	return total
}

// IntervalEnergy returns the energy harvested over [t1, t2] as the
// difference of two prefix walks, PrefixEnergy(t2) − PrefixEnergy(t1).
// This reproduces the optimized O(1) query C(t2) − C(t1) bit for bit
// (same minuend, same subtrahend, same subtraction), which is what lets
// the differential harness demand exact equality: a divergence means a
// caching or pooling bug, not float reassociation.
func IntervalEnergy(src energy.Source, t1, t2 float64) float64 {
	if t2 < t1 {
		panic("refimpl: IntervalEnergy interval inverted")
	}
	return PrefixEnergy(src, t2) - PrefixEnergy(src, t1)
}

// Oracle is the reference perfect predictor: it answers every query with
// the naive IntervalEnergy walk over the true source — O(deadline) per
// decision, the cost the optimized energy.Oracle's cumulative cache
// exists to avoid.
type Oracle struct {
	Src energy.Source
}

// NewOracle returns a naive perfect predictor for src.
func NewOracle(src energy.Source) *Oracle {
	if src == nil {
		panic("refimpl: nil source for oracle")
	}
	return &Oracle{Src: src}
}

// Observe implements energy.Predictor (a perfect predictor learns nothing).
func (o *Oracle) Observe(t, p float64) {}

// PredictEnergy implements energy.Predictor.
func (o *Oracle) PredictEnergy(t1, t2 float64) float64 {
	return IntervalEnergy(o.Src, t1, t2)
}

// EWMA is the reference exponentially-weighted moving-average predictor,
// transcribed from the recurrence avg ← α·p + (1−α)·avg with the first
// observation seeding the average. The float operations match
// energy.EWMA's exactly, in the same order, so predictions are
// bit-identical given the same observation stream.
type EWMA struct {
	Alpha float64
	avg   float64
	seen  bool
}

// NewEWMA returns a reference EWMA predictor.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 || math.IsNaN(alpha) {
		panic("refimpl: EWMA alpha outside (0,1]")
	}
	return &EWMA{Alpha: alpha}
}

// Observe implements energy.Predictor.
func (e *EWMA) Observe(t, p float64) {
	if !e.seen {
		e.avg = p
		e.seen = true
		return
	}
	e.avg = float64(e.Alpha*p) + float64((1-e.Alpha)*e.avg)
}

// PredictEnergy implements energy.Predictor.
func (e *EWMA) PredictEnergy(t1, t2 float64) float64 {
	if t2 < t1 {
		panic("refimpl: prediction interval inverted")
	}
	return e.avg * (t2 - t1)
}

// LastValue is the reference last-observation predictor.
type LastValue struct {
	last float64
}

// NewLastValue returns a reference last-value predictor.
func NewLastValue() *LastValue { return &LastValue{} }

// Observe implements energy.Predictor.
func (l *LastValue) Observe(t, p float64) { l.last = p }

// PredictEnergy implements energy.Predictor.
func (l *LastValue) PredictEnergy(t1, t2 float64) float64 {
	if t2 < t1 {
		panic("refimpl: prediction interval inverted")
	}
	return l.last * (t2 - t1)
}

// Zero is the reference no-future-harvest predictor.
type Zero struct{}

// Observe implements energy.Predictor.
func (Zero) Observe(t, p float64) {}

// PredictEnergy implements energy.Predictor.
func (Zero) PredictEnergy(t1, t2 float64) float64 {
	if t2 < t1 {
		panic("refimpl: prediction interval inverted")
	}
	return 0
}
