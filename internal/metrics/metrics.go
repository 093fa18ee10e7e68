// Package metrics provides the statistics machinery behind the paper's
// evaluation: sampled time series (the remaining-energy curves of Figures
// 6–7), online mean/variance accumulators for replicated experiments, and
// deadline-miss accounting (Figures 8–9).
package metrics

import (
	"fmt"
	"math"
)

// Welford is a numerically stable online mean/variance accumulator.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	// float64(...) rounds the product before the add, so no GOARCH fuses
	// it into one multiply-add and every platform gets the same bits.
	w.m2 += float64(d * (x - w.mean))
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 for no observations).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n == 0 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// Series is a uniformly sampled time series: value[i] applies at time
// Start + i*Step. Figures 6–7 are Series sampled once per time unit.
type Series struct {
	Start  float64
	Step   float64
	Values []float64
}

// NewSeries allocates a series of n samples.
func NewSeries(start, step float64, n int) *Series {
	if step <= 0 || n < 0 {
		panic(fmt.Sprintf("metrics: invalid series spec step=%v n=%d", step, n))
	}
	return &Series{Start: start, Step: step, Values: make([]float64, n)}
}

// Len returns the sample count.
func (s *Series) Len() int { return len(s.Values) }

// TimeAt returns the timestamp of sample i. The product is rounded
// before the add, as in Welford.Add.
func (s *Series) TimeAt(i int) float64 { return s.Start + float64(float64(i)*s.Step) }

// Mean returns the average of all samples (0 when empty).
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// MissStats tallies deadline outcomes.
type MissStats struct {
	Released int
	Finished int
	Missed   int
}

// Rate returns Missed/Released, the paper's deadline miss rate; 0 when
// nothing was released.
func (m MissStats) Rate() float64 {
	if m.Released == 0 {
		return 0
	}
	return float64(m.Missed) / float64(m.Released)
}

// Add accumulates another tally.
func (m *MissStats) Add(o MissStats) {
	m.Released += o.Released
	m.Finished += o.Finished
	m.Missed += o.Missed
}

// Check verifies internal consistency: outcomes partition releases for a
// completed run (every released job either finished or missed).
func (m MissStats) Check() error {
	if m.Released < 0 || m.Finished < 0 || m.Missed < 0 {
		return fmt.Errorf("metrics: negative tally %+v", m)
	}
	if m.Finished+m.Missed > m.Released {
		return fmt.Errorf("metrics: outcomes exceed releases %+v", m)
	}
	return nil
}

// Degradation tallies graceful-degradation events: how often and how hard
// injected faults (internal/fault) bent a run away from its nominal
// behaviour. The engine records these instead of failing, so experiments
// can quantify robustness ("how does the miss rate respond to harvester
// dropouts?") rather than crash. The zero value means a clean run.
type Degradation struct {
	SourceFaultTime float64 // time the harvester was in dropout/brown-out
	LeakSpikeTime   float64 // time the store leaked at the spiked rate
	DVFSStuckTime   float64 // time DVFS transitions were inhibited
	BlackoutTime    float64 // time the predictor was blind

	FadeEnergy      float64 // energy lost to storage capacity fade
	LeakSpikeEnergy float64 // energy lost to leakage spikes
	OverrunWork     float64 // actual work executed beyond declared WCETs

	DVFSClamps     int // decisions whose requested level was overridden
	StaleForecasts int // predictor observations dropped
	Overruns       int // jobs whose actual work exceeded their WCET
}

// Any reports whether any degradation was recorded.
func (d Degradation) Any() bool {
	return d != Degradation{}
}

// Add accumulates another tally.
func (d *Degradation) Add(o Degradation) {
	d.SourceFaultTime += o.SourceFaultTime
	d.LeakSpikeTime += o.LeakSpikeTime
	d.DVFSStuckTime += o.DVFSStuckTime
	d.BlackoutTime += o.BlackoutTime
	d.FadeEnergy += o.FadeEnergy
	d.LeakSpikeEnergy += o.LeakSpikeEnergy
	d.OverrunWork += o.OverrunWork
	d.DVFSClamps += o.DVFSClamps
	d.StaleForecasts += o.StaleForecasts
	d.Overruns += o.Overruns
}

// Histogram is a fixed-width bucket histogram over [Lo, Hi); out-of-range
// observations clamp into the edge buckets.
type Histogram struct {
	Lo, Hi  float64
	Buckets []int
	count   int
}

// NewHistogram allocates n buckets over [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if hi <= lo || n <= 0 {
		panic(fmt.Sprintf("metrics: invalid histogram [%v,%v)x%d", lo, hi, n))
	}
	return &Histogram{Lo: lo, Hi: hi, Buckets: make([]int, n)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	n := len(h.Buckets)
	i := int(float64(n) * (x - h.Lo) / (h.Hi - h.Lo))
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	h.Buckets[i]++
	h.count++
}

// Count returns total observations.
func (h *Histogram) Count() int { return h.count }
