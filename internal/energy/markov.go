package energy

import (
	"fmt"

	"github.com/eadvfs/eadvfs/internal/rng"
)

// MarkovWeather modulates a base source with a two-state weather chain
// (clear/overcast) — the standard next step up from i.i.d. noise in the
// harvesting-prediction literature: cloud cover is strongly
// autocorrelated, which is precisely what makes recency-based predictors
// (EWMA, WCMA's GAP term) work. State dwell times are geometric with the
// configured mean lengths; the overcast state scales the base power by
// OvercastFactor.
type MarkovWeather struct {
	Base           Source
	MeanClear      float64 // mean clear-spell length, time units
	MeanOvercast   float64 // mean overcast-spell length
	OvercastFactor float64 // power multiplier while overcast, in [0, 1]

	r      *rng.RNG
	states []bool // per unit interval: true = overcast; lazily extended
}

// NewMarkovWeather wraps base with a weather chain.
func NewMarkovWeather(base Source, seed uint64, meanClear, meanOvercast, overcastFactor float64) *MarkovWeather {
	switch {
	case base == nil:
		panic("energy: nil base source")
	case meanClear < 1 || meanOvercast < 1:
		panic(fmt.Sprintf("energy: mean spell lengths (%v, %v) must be >= 1 unit", meanClear, meanOvercast))
	case overcastFactor < 0 || overcastFactor > 1:
		panic(fmt.Sprintf("energy: overcast factor %v outside [0,1]", overcastFactor))
	}
	return &MarkovWeather{
		Base:           base,
		MeanClear:      meanClear,
		MeanOvercast:   meanOvercast,
		OvercastFactor: overcastFactor,
		r:              rng.New(seed),
	}
}

// overcastAt reports the chain state for unit interval k, memoized so the
// sample path is a pure function of the seed.
func (m *MarkovWeather) overcastAt(k int) bool {
	for len(m.states) <= k {
		var next bool
		if n := len(m.states); n == 0 {
			next = false // start clear
		} else if m.states[n-1] {
			// Leave overcast with probability 1/MeanOvercast per unit.
			next = m.r.Float64() >= 1/m.MeanOvercast
		} else {
			next = m.r.Float64() < 1/m.MeanClear
		}
		m.states = append(m.states, next)
	}
	return m.states[k]
}

// PowerAt implements Source.
func (m *MarkovWeather) PowerAt(t float64) float64 {
	if t < 0 {
		panic("energy: PowerAt before t=0")
	}
	p := m.Base.PowerAt(t)
	if m.overcastAt(int(t)) {
		return p * m.OvercastFactor
	}
	return p
}

// MeanPower implements Source: the stationary mix of the two states.
func (m *MarkovWeather) MeanPower() float64 {
	// Stationary probability of overcast for the two-state chain.
	pOver := m.MeanOvercast / (m.MeanClear + m.MeanOvercast)
	return m.Base.MeanPower() * (1 - pOver + float64(pOver*m.OvercastFactor))
}

// Name implements Source.
func (m *MarkovWeather) Name() string { return "markov(" + m.Base.Name() + ")" }
