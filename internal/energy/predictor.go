package energy

import (
	"fmt"
	"math"
)

// Predictor estimates the energy Ês(t1, t2) the source will deliver over a
// future interval. Both LSA and EA-DVFS take scheduling decisions from this
// estimate (eqs. 5 and 9 use ES(am, am+dm), which at decision time is a
// prediction). Predictors learn online: the engine calls Observe once per
// completed unit interval with the power that actually materialised.
type Predictor interface {
	// Observe records that the source output power p over [t, t+1).
	// Observations arrive in non-decreasing time order.
	Observe(t, p float64)
	// PredictEnergy estimates the harvested energy over [t1, t2], t1 <= t2.
	PredictEnergy(t1, t2 float64) float64
}

// Oracle predicts with perfect knowledge of the source — the upper bound on
// predictor quality, used to separate algorithmic gains from prediction
// error in the ablation benches.
type Oracle struct {
	Src Source

	// cum is Src upgraded to O(1) prefix queries — the oracle integrates
	// the true source on every decision, which without the cache costs
	// O(deadline) per query.
	cum Cumulative
}

// NewOracle returns a perfect predictor for src.
func NewOracle(src Source) *Oracle {
	if src == nil {
		panic("energy: nil source for oracle")
	}
	return &Oracle{Src: src, cum: AsCumulative(src)}
}

func (o *Oracle) Observe(t, p float64) {}

func (o *Oracle) PredictEnergy(t1, t2 float64) float64 {
	if o.cum == nil { // literal construction without NewOracle
		o.cum = AsCumulative(o.Src)
	}
	return Energy(o.cum, t1, t2)
}

// EWMA is a recency-weighted predictor: it tracks an exponentially weighted
// moving average of the observed power and extrapolates it as constant over
// the queried window. With task deadlines (≤ 100) much shorter than the
// envelope period (≈ 691), recent output is the dominant signal — this is
// the repository's default predictor (DESIGN.md §5.4).
type EWMA struct {
	Alpha float64 // weight of the newest observation, in (0, 1]
	avg   float64
	seen  bool
}

// NewEWMA returns an EWMA predictor. Alpha outside (0, 1] panics;
// NewEWMAChecked returns an error instead, for alphas taken from flags.
func NewEWMA(alpha float64) *EWMA {
	e, err := NewEWMAChecked(alpha)
	if err != nil {
		panic(err.Error())
	}
	return e
}

// NewEWMAChecked is the error-returning variant of NewEWMA.
func NewEWMAChecked(alpha float64) (*EWMA, error) {
	if alpha <= 0 || alpha > 1 || math.IsNaN(alpha) {
		return nil, fmt.Errorf("energy: EWMA alpha %v outside (0,1]", alpha)
	}
	return &EWMA{Alpha: alpha}, nil
}

func (e *EWMA) Observe(t, p float64) {
	if !e.seen {
		e.avg = p
		e.seen = true
		return
	}
	e.avg = float64(e.Alpha*p) + float64((1-e.Alpha)*e.avg)
}

func (e *EWMA) PredictEnergy(t1, t2 float64) float64 {
	checkInterval(t1, t2)
	return e.avg * (t2 - t1)
}

// SlotEWMA is the Kansal-style profile predictor [6,9]: the source period
// is divided into equal slots and an independent EWMA is maintained per
// slot, learning the deterministic envelope across periods. Prediction
// integrates the per-slot estimates across the queried window.
type SlotEWMA struct {
	Period  float64
	Slots   int
	Alpha   float64
	avg     []float64
	seenAny bool

	// Lazily rebuilt prediction tables (dirty after every Observe):
	// est[i] is the resolved per-slot power (avg or fallback), prefix[i]
	// the energy of slots [0, i) within one period, periodTotal the whole
	// period's energy. With them a PredictEnergy query is O(1) instead of
	// O(span/slotLen).
	dirty       bool
	est         []float64
	prefix      []float64
	periodTotal float64
}

// NewSlotEWMA returns a profile predictor with the given source period,
// slot count and smoothing factor, panicking on invalid input;
// NewSlotEWMAChecked returns an error instead.
func NewSlotEWMA(period float64, slots int, alpha float64) *SlotEWMA {
	s, err := NewSlotEWMAChecked(period, slots, alpha)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// NewSlotEWMAChecked is the error-returning variant of NewSlotEWMA.
func NewSlotEWMAChecked(period float64, slots int, alpha float64) (*SlotEWMA, error) {
	switch {
	case period <= 0 || math.IsNaN(period) || math.IsInf(period, 0):
		return nil, fmt.Errorf("energy: invalid slot period %v", period)
	case slots <= 0:
		return nil, fmt.Errorf("energy: non-positive slot count %d", slots)
	case alpha <= 0 || alpha > 1 || math.IsNaN(alpha):
		return nil, fmt.Errorf("energy: slot alpha %v outside (0,1]", alpha)
	}
	avg := make([]float64, slots)
	for i := range avg {
		avg[i] = math.NaN() // unseen
	}
	return &SlotEWMA{Period: period, Slots: slots, Alpha: alpha, avg: avg}, nil
}

func (s *SlotEWMA) slotOf(t float64) int {
	phase := math.Mod(t, s.Period)
	idx := int(phase / s.Period * float64(s.Slots))
	if idx >= s.Slots {
		idx = s.Slots - 1
	}
	return idx
}

func (s *SlotEWMA) Observe(t, p float64) {
	i := s.slotOf(t)
	if math.IsNaN(s.avg[i]) {
		s.avg[i] = p
	} else {
		s.avg[i] = float64(s.Alpha*p) + float64((1-s.Alpha)*s.avg[i])
	}
	s.seenAny = true
	s.dirty = true
}

// slotEstimate returns the learned power for slot i, falling back to the
// mean of seen slots (or 0) for slots never observed.
func (s *SlotEWMA) slotEstimate(i int) float64 {
	if !math.IsNaN(s.avg[i]) {
		return s.avg[i]
	}
	if !s.seenAny {
		return 0
	}
	sum, n := 0.0, 0
	for _, v := range s.avg {
		if !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	return sum / float64(n)
}

// rebuild refreshes the prediction tables from the per-slot averages.
// O(Slots), amortized over the (typically many) queries between
// observations.
func (s *SlotEWMA) rebuild() {
	slotLen := s.Period / float64(s.Slots)
	if s.est == nil {
		s.est = make([]float64, s.Slots)
		s.prefix = make([]float64, s.Slots+1)
	}
	for i := range s.est {
		s.est[i] = s.slotEstimate(i)
		s.prefix[i+1] = s.prefix[i] + float64(s.est[i]*slotLen)
	}
	s.periodTotal = s.prefix[s.Slots]
	s.dirty = false
}

// cumulative returns the predicted energy over [0, t] from the tables.
func (s *SlotEWMA) cumulative(t float64) float64 {
	full := math.Floor(t / s.Period)
	phase := t - float64(full*s.Period)
	slotLen := s.Period / float64(s.Slots)
	i := int(phase / slotLen)
	if i >= s.Slots {
		i = s.Slots - 1
	}
	return float64(full*s.periodTotal) + s.prefix[i] + float64(s.est[i]*(phase-float64(float64(i)*slotLen)))
}

func (s *SlotEWMA) PredictEnergy(t1, t2 float64) float64 {
	checkInterval(t1, t2)
	if s.dirty || s.est == nil {
		s.rebuild()
	}
	total := s.cumulative(t2) - s.cumulative(t1)
	if total < 0 {
		// Estimates are non-negative (powers are), so a negative
		// difference can only be float jitter at period/slot boundaries.
		total = 0
	}
	return total
}

// MovingAverage predicts with the arithmetic mean of the last Window
// observations, extrapolated as constant.
type MovingAverage struct {
	Window int
	buf    []float64
	next   int
	filled int
	sum    float64
}

// NewMovingAverage returns a moving-average predictor over the given
// window, panicking on invalid input; NewMovingAverageChecked returns an
// error instead.
func NewMovingAverage(window int) *MovingAverage {
	m, err := NewMovingAverageChecked(window)
	if err != nil {
		panic(err.Error())
	}
	return m
}

// NewMovingAverageChecked is the error-returning variant of
// NewMovingAverage.
func NewMovingAverageChecked(window int) (*MovingAverage, error) {
	if window <= 0 {
		return nil, fmt.Errorf("energy: non-positive moving-average window %d", window)
	}
	return &MovingAverage{Window: window, buf: make([]float64, window)}, nil
}

func (m *MovingAverage) Observe(t, p float64) {
	if m.filled == m.Window {
		m.sum -= m.buf[m.next]
	} else {
		m.filled++
	}
	m.buf[m.next] = p
	m.sum += p
	m.next = (m.next + 1) % m.Window
}

func (m *MovingAverage) PredictEnergy(t1, t2 float64) float64 {
	checkInterval(t1, t2)
	if m.filled == 0 {
		return 0
	}
	return m.sum / float64(m.filled) * (t2 - t1)
}

// LastValue extrapolates the most recent observation — the cheapest
// possible tracer of the profile.
type LastValue struct {
	last float64
}

// NewLastValue returns a last-value predictor.
func NewLastValue() *LastValue { return &LastValue{} }

func (l *LastValue) Observe(t, p float64) { l.last = p }

func (l *LastValue) PredictEnergy(t1, t2 float64) float64 {
	checkInterval(t1, t2)
	return l.last * (t2 - t1)
}

// Zero predicts no future harvest — the maximally pessimistic estimator.
// Under Zero, LSA and EA-DVFS budget only the stored energy.
type Zero struct{}

func (Zero) Observe(t, p float64) {}

func (Zero) PredictEnergy(t1, t2 float64) float64 {
	checkInterval(t1, t2)
	return 0
}

func checkInterval(t1, t2 float64) {
	if t2 < t1 || math.IsNaN(t1) || math.IsNaN(t2) {
		panic(fmt.Sprintf("energy: prediction interval inverted [%v, %v]", t1, t2))
	}
}
