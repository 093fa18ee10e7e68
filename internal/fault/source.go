package fault

import (
	"github.com/eadvfs/eadvfs/internal/energy"
)

// flakySource wraps an energy.Source with dropout/brown-out windows:
// during a window the output is multiplied by the set's drop factor.
// Windows are unit-aligned, so the wrapped source keeps the
// piecewise-constant-per-unit contract the engine's exact integration
// depends on, and PowerAt remains a pure function of t for a given pair
// of seeds (the oracle predictor may query any interval in any order).
type flakySource struct {
	src energy.Source
	set *Set
}

// WrapSource returns src with the harvester faults applied, or src
// unchanged on a nil set.
func (s *Set) WrapSource(src energy.Source) energy.Source {
	if s == nil {
		return src
	}
	return &flakySource{src: src, set: s}
}

// PowerAt implements energy.Source.
func (f *flakySource) PowerAt(t float64) float64 {
	p := f.src.PowerAt(t)
	if f.set.dropout.active(t) {
		return p * f.set.dropFactor
	}
	return p
}

// MeanPower implements energy.Source: the nominal mean scaled by the
// expected fault duty cycle.
func (f *flakySource) MeanPower() float64 {
	duty := f.set.dropout.dutyCycle()
	return f.src.MeanPower() * (1 - float64(duty*(1-f.set.dropFactor)))
}
