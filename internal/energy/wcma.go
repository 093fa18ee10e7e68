package energy

import (
	"fmt"
	"math"
)

// WCMA is a weather-conditioned moving average predictor (Bergonzini,
// Brunelli & Benini; Recas Piorno et al.) — the solar-harvesting
// predictor family that improved on Kansal's per-slot EWMA by scaling the
// historical per-slot profile with how today's conditions compare to that
// profile ("today is this cloudy").
//
// The source period (a day) is divided into Slots; the predictor keeps
// the mean observed power of each slot over the last Days periods. A
// prediction for a future slot s is
//
//	P̂(s) = GAP · M(s)
//
// where M(s) is the historical mean of slot s and GAP is the weighted
// mean of obs/M over the last K observed slots (more recent slots weigh
// more), clamped to [GapMin, GapMax]. With no history yet it falls back
// to extrapolating the last observation.
type WCMA struct {
	Period float64
	Slots  int
	Days   int
	K      int

	// GapMin and GapMax bound the conditioning ratio so a single
	// outlier slot cannot blow up the forecast.
	GapMin, GapMax float64

	slotLen float64
	// hist[d][s] accumulates day-d slot-s observations.
	hist  [][]slotAcc
	ring  int // index of the day currently being filled
	day   int // absolute day index of ring slot
	ready bool

	// recent obs/mean ratios for GAP, newest last.
	recent []float64

	lastObs  float64
	seenAny  bool
	lastSlot int
	lastDay  int
	haveSlot bool

	// Lazily rebuilt prediction tables (dirty after every Observe):
	// val[s] is the effective forecast power of slot s (GAP·mean or the
	// last-observation fallback), prefix[s] the energy of slots [0, s)
	// within one period. They make PredictEnergy O(1) instead of
	// O(span/slotLen · Days).
	dirty       bool
	val         []float64
	prefix      []float64
	periodTotal float64
}

type slotAcc struct {
	sum float64
	n   int
}

// NewWCMA returns a WCMA predictor over the given period with the given
// slot count, history depth in days and conditioning window.
func NewWCMA(period float64, slots, days, k int) *WCMA {
	switch {
	case period <= 0:
		panic("energy: non-positive WCMA period")
	case slots <= 0 || days <= 0 || k <= 0:
		panic(fmt.Sprintf("energy: invalid WCMA shape slots=%d days=%d k=%d", slots, days, k))
	}
	hist := make([][]slotAcc, days)
	for i := range hist {
		hist[i] = make([]slotAcc, slots)
	}
	return &WCMA{
		Period: period, Slots: slots, Days: days, K: k,
		GapMin: 0.1, GapMax: 3,
		slotLen: period / float64(slots),
		hist:    hist,
	}
}

func (w *WCMA) slotOf(t float64) (day, slot int) {
	day = int(math.Floor(t / w.Period))
	phase := math.Mod(t, w.Period)
	slot = int(phase / w.Period * float64(w.Slots))
	if slot >= w.Slots {
		slot = w.Slots - 1
	}
	return day, slot
}

// mean returns the historical mean of slot s over completed days,
// excluding the day currently being filled; ok is false with no history.
func (w *WCMA) mean(s int) (float64, bool) {
	sum, n := 0.0, 0
	for d := range w.hist {
		if d == w.ring {
			continue
		}
		if w.hist[d][s].n > 0 {
			sum += w.hist[d][s].sum / float64(w.hist[d][s].n)
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// Observe implements Predictor.
func (w *WCMA) Observe(t, p float64) {
	day, slot := w.slotOf(t)
	// Rotate the ring on day changes (handles skipped days too).
	for w.seenAny && day > w.day {
		w.day++
		w.ring = (w.ring + 1) % w.Days
		w.hist[w.ring] = make([]slotAcc, w.Slots)
		w.ready = true
	}
	if !w.seenAny {
		w.day = day
	}
	w.seenAny = true
	w.lastObs = p

	// On leaving a slot, record its conditioning ratio.
	if w.haveSlot && (slot != w.lastSlot || day != w.lastDay) {
		prev := w.hist[w.ring][w.lastSlot]
		if m, ok := w.mean(w.lastSlot); ok && m > 1e-12 && prev.n > 0 {
			ratio := (prev.sum / float64(prev.n)) / m
			w.recent = append(w.recent, ratio)
			if len(w.recent) > w.K {
				w.recent = w.recent[len(w.recent)-w.K:]
			}
		}
	}
	w.hist[w.ring][slot].sum += p
	w.hist[w.ring][slot].n++
	w.lastSlot, w.lastDay, w.haveSlot = slot, day, true
	w.dirty = true
}

// gap returns the current weather-conditioning factor.
func (w *WCMA) gap() float64 {
	if len(w.recent) == 0 {
		return 1
	}
	// Newer ratios weigh more: weight i+1 for the i-th oldest.
	num, den := 0.0, 0.0
	for i, r := range w.recent {
		wt := float64(i + 1)
		num += float64(wt * r)
		den += wt
	}
	g := num / den
	if g < w.GapMin {
		g = w.GapMin
	}
	if g > w.GapMax {
		g = w.GapMax
	}
	return g
}

// rebuild refreshes the per-slot forecast tables — O(Slots·Days), paid
// once per observation instead of per query.
func (w *WCMA) rebuild() {
	if w.val == nil {
		w.val = make([]float64, w.Slots)
		w.prefix = make([]float64, w.Slots+1)
	}
	g := w.gap()
	for s := range w.val {
		m, ok := w.mean(s)
		if !ok {
			m = w.lastObs
		} else {
			m *= g
		}
		w.val[s] = m
		w.prefix[s+1] = w.prefix[s] + float64(m*w.slotLen)
	}
	w.periodTotal = w.prefix[w.Slots]
	w.dirty = false
}

// cumulative returns the forecast energy over [0, t] from the tables.
func (w *WCMA) cumulative(t float64) float64 {
	full := math.Floor(t / w.Period)
	phase := t - float64(full*w.Period)
	s := int(phase / w.slotLen)
	if s >= w.Slots {
		s = w.Slots - 1
	}
	return float64(full*w.periodTotal) + w.prefix[s] + float64(w.val[s]*(phase-float64(float64(s)*w.slotLen)))
}

// PredictEnergy implements Predictor.
func (w *WCMA) PredictEnergy(t1, t2 float64) float64 {
	checkInterval(t1, t2)
	if !w.ready {
		// First day: no profile yet — extrapolate the last observation.
		return w.lastObs * (t2 - t1)
	}
	if w.dirty || w.val == nil {
		w.rebuild()
	}
	total := w.cumulative(t2) - w.cumulative(t1)
	if total < 0 {
		// Forecast powers are non-negative, so a negative difference can
		// only be float jitter at period/slot boundaries.
		total = 0
	}
	return total
}
