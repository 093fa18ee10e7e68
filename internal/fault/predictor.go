package fault

import (
	"github.com/eadvfs/eadvfs/internal/energy"
)

// blackoutPredictor wraps an energy.Predictor so that observations made
// during blackout windows are dropped: the inner predictor keeps serving
// forecasts, but from stale data — the "telemetry link down" failure mode
// of a deployed harvesting node.
type blackoutPredictor struct {
	inner energy.Predictor
	set   *Set
}

// WrapPredictor returns p with the blackout fault applied, or p unchanged
// on a nil set.
func (s *Set) WrapPredictor(p energy.Predictor) energy.Predictor {
	if s == nil {
		return p
	}
	return &blackoutPredictor{inner: p, set: s}
}

// Observe implements energy.Predictor, dropping observations inside
// blackout windows.
func (b *blackoutPredictor) Observe(t, p float64) {
	if b.set.blackout.active(t) {
		b.set.counters.StaleForecasts++
		return
	}
	b.inner.Observe(t, p)
}

// PredictEnergy implements energy.Predictor.
func (b *blackoutPredictor) PredictEnergy(t1, t2 float64) float64 {
	return b.inner.PredictEnergy(t1, t2)
}
