// Package energy models the environmental energy supply of the system:
// harvesting sources (§3.1 of the paper) and harvested-energy predictors
// ("we trace PS(t) profile to predict the harvested energy from a future
// period", §3.1/§5.1).
//
// All sources are piecewise-constant over unit intervals [k, k+1): the
// paper's simulator samples eq. (13) per time unit, and a piecewise-constant
// supply is what makes the within-interval storage dynamics linear (see
// internal/sim). Powers are in the repository's canonical power unit
// (DESIGN.md §5.3) and times in simulation time units.
package energy

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/eadvfs/eadvfs/internal/rng"
)

// Source is a harvesting power supply. PowerAt reports the (non-negative)
// output power over the unit interval containing t; the value is constant
// within each interval [k, k+1).
type Source interface {
	// PowerAt returns the harvested power at time t >= 0. It must be a
	// pure function of t: the same t always gives the same power, whatever
	// was queried before. The engine relies on this and memoizes the last
	// query (internal/sim).
	PowerAt(t float64) float64
	// MeanPower returns the long-run average output power. The task-set
	// generator (§5.1) sizes worst-case energies from this value.
	MeanPower() float64
}

// Energy integrates src over [t1, t2] exactly, exploiting the
// piecewise-constant-per-unit-interval contract. It is the simulator's
// ES(t1, t2) (eq. 2).
//
// Sources that implement Cumulative answer in O(1) via prefix-sum
// difference C(t2) − C(t1); everything else falls back to the O(t2−t1)
// unit walk. Wrap hot sources with AsCumulative to get the fast path.
func Energy(src Source, t1, t2 float64) float64 {
	if t2 < t1 {
		panic(fmt.Sprintf("energy: Energy interval inverted [%v, %v]", t1, t2))
	}
	if t1 < 0 {
		panic(fmt.Sprintf("energy: Energy interval starts before 0: %v", t1))
	}
	if c, ok := src.(Cumulative); ok {
		return c.CumulativeEnergy(t2) - c.CumulativeEnergy(t1)
	}
	return naiveEnergy(src, t1, t2)
}

// naiveEnergy is the reference unit-interval integration: walk [t1, t2]
// one unit boundary at a time, accumulating PowerAt·width left to right.
// The prefix-sum caches reproduce this addition order exactly for
// intervals starting at 0 (see cumulative.go), which is what the
// bit-equivalence property test pins down.
func naiveEnergy(src Source, t1, t2 float64) float64 {
	total := 0.0
	t := t1
	for t < t2 {
		boundary := math.Floor(t) + 1
		end := min(boundary, t2)
		total += float64(src.PowerAt(t) * (end - t))
		t = end
	}
	return total
}

// SolarModel is the paper's stochastic solar source (eq. 13):
//
//	PS(t) = 10 · |N(t)| · cos²(t / 70π)
//
// N(t) is resampled once per time unit. The paper writes N(t) ~ N(0,1), but
// Figure 5 shows a non-negative trace, so the half-normal |N(t)| is used
// (DESIGN.md §5.2). The cos² envelope gives the "periodic and deterministic
// aspect" with period 70π² ≈ 691 time units.
//
// Powers are generated lazily and memoized so that PowerAt is a pure
// function of t for a given seed — predictors and the engine may query any
// interval in any order and always observe the same trace.
//
// Retention policy: the per-unit power table (8 bytes per simulated time
// unit) lives as long as the model and grows to the furthest instant ever
// queried; it is never evicted, because the realized trace *is* the
// identity of a seeded source and dropping a prefix would break
// deterministic replay. A 10⁴-unit horizon costs ~80 KB; multi-day sweeps
// should share one model per replication via Fork instead of instantiating
// one per policy. The energy prefix-sum table (another 8 bytes per unit)
// exists only once the model answers its first CumulativeEnergy query, and
// covers only the units prefix queries have reached — the engine reads
// PowerAt alone, so on the default path it is never built. Growth beyond
// maxSolarSamples panics — that many units (~512 MiB of power table)
// always indicates a runaway horizon, not a real experiment. The cos²
// envelope is not per model: every model reads it from one process-wide
// table (envelopeTable), which grows to the furthest unit any model has
// realized.
type SolarModel struct {
	Amplitude float64 // peak envelope scale; the paper uses 10
	r         *rng.RNG
	power     []float64 // power[k] = Amplitude·|N(k)|·Envelope(k)
	cum       []float64 // cum[k] = ∫₀ᵏ P, filled lazily; len(cum) <= len(power)+1
}

// maxSolarSamples caps lazy table growth (see the retention policy above).
const maxSolarSamples = 1 << 26

// EnvelopePeriod is the period of the cos² envelope of eq. (13) in time
// units: cos²(t/70π) repeats every 70π².
const EnvelopePeriod = 70 * math.Pi * math.Pi

// NewSolarModel returns the paper's eq. (13) source with Amplitude 10,
// seeded deterministically.
func NewSolarModel(seed uint64) *SolarModel {
	return NewSolarModelAmp(seed, 10)
}

// NewSolarModelAmp returns an eq. (13) source with a custom amplitude.
// It panics on invalid input; NewSolarModelAmpChecked returns an error
// instead, for amplitudes coming from flags or config files.
func NewSolarModelAmp(seed uint64, amplitude float64) *SolarModel {
	s, err := NewSolarModelAmpChecked(seed, amplitude)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// NewSolarModelAmpChecked is the error-returning variant of
// NewSolarModelAmp.
func NewSolarModelAmpChecked(seed uint64, amplitude float64) (*SolarModel, error) {
	if amplitude < 0 || math.IsNaN(amplitude) || math.IsInf(amplitude, 0) {
		return nil, fmt.Errorf("energy: invalid solar amplitude %v", amplitude)
	}
	return &SolarModel{Amplitude: amplitude, r: rng.New(seed)}, nil
}

// Fork returns a model that shares this one's memoized trace so far, and
// whatever prefix-sum table it has built, and extends both identically on
// demand: the fork clones the RNG state and cap-clamps the shared slices,
// so later growth in either model reallocates instead of clobbering the
// other, and both realize bit-identical powers and prefix sums for every
// index. The experiment runner forks one master source per replication
// across the paired policies instead of regenerating the trace per policy.
func (s *SolarModel) Fork() *SolarModel {
	return &SolarModel{
		Amplitude: s.Amplitude,
		r:         s.r.Clone(),
		power:     s.power[:len(s.power):len(s.power)],
		cum:       s.cum[:len(s.cum):len(s.cum)],
	}
}

// Envelope returns the deterministic cos² factor of eq. (13) at time t.
func Envelope(t float64) float64 {
	c := math.Cos(t / (70 * math.Pi))
	return c * c
}

// envelopeTable holds Envelope(float64(k)) for every k below its length:
// the cos² factor of every unit any SolarModel in the process has
// realized. The factor depends on k alone, so one table serves every
// seed, and math.Cos runs once per index per process instead of once per
// unit of every trace. The table is append-only: readers load it without
// a lock, and growth publishes a longer copy whose prefix is the old
// table, so a slice loaded earlier stays valid and bit-identical.
var envelopeTable atomic.Pointer[[]float64]

// envelopeGrow serializes growth of envelopeTable.
var envelopeGrow sync.Mutex

// minEnvelopeTable is the length of the first table (8 KiB), so short
// traces do not regrow it index by index.
const minEnvelopeTable = 1 << 10

// envelopeThrough returns the envelope table covering index k, growing it
// when it is shorter. k must be below maxSolarSamples.
func envelopeThrough(k int) []float64 {
	if t := envelopeTable.Load(); t != nil && k < len(*t) {
		return *t
	}
	envelopeGrow.Lock()
	defer envelopeGrow.Unlock()
	var old []float64
	if t := envelopeTable.Load(); t != nil {
		if old = *t; k < len(old) {
			return old
		}
	}
	n := min(max(2*len(old), k+1, minEnvelopeTable), maxSolarSamples)
	t := make([]float64, n)
	copy(t, old)
	for i := len(old); i < n; i++ {
		t[i] = Envelope(float64(i))
	}
	envelopeTable.Store(&t)
	return t
}

// solarRealized counts solar unit intervals realized (memoized for the
// first time in some model) across the process — one tick per unit of
// trace a model generates rather than inherits from a Fork. Tests use the
// counter to pin down that sweeps realize each replication's trace once,
// not once per (capacity, policy) cell; it is diagnostic state, never an
// input to any computation.
var solarRealized atomic.Uint64

// SolarRealizations returns the process-wide count of solar trace units
// realized so far (see solarRealized).
func SolarRealizations() uint64 { return solarRealized.Load() }

// ensure makes the power table cover unit interval k. It is the check
// every query pays, small enough to inline; growth is out of line.
func (s *SolarModel) ensure(k int) {
	if k >= len(s.power) {
		s.extend(k)
	}
}

// extend grows the power table through unit interval k with one
// reservation (the former one-append-per-element growth was quadratic from
// a cold start at large t). Each unit draws its half-normal deviate and
// stores only the resulting power; the envelope factor comes from the
// shared table, fetched once per call. The product keeps eq. (13)'s
// order, Amplitude·|N|·Envelope(k), so every power is bit-identical to
// computing the envelope in place.
func (s *SolarModel) extend(k int) {
	if k >= maxSolarSamples {
		panic(fmt.Sprintf("energy: solar trace would exceed %d units at t=%d — runaway horizon? (see SolarModel retention policy)", maxSolarSamples, k))
	}
	env := envelopeThrough(k)
	solarRealized.Add(uint64(k + 1 - len(s.power)))
	s.power = grow(s.power, k+1-len(s.power))
	for i := len(s.power); i <= k; i++ {
		s.power = append(s.power, s.Amplitude*s.r.HalfNormal()*env[i])
	}
}

// extendCum grows the prefix-sum table through cum[k], summing the power
// table left to right from where it stopped — the naive walk's order, so
// every prefix is bit-identical to it whenever it was built. The power
// table must already cover unit k-1.
func (s *SolarModel) extendCum(k int) {
	s.cum = grow(s.cum, k+1-len(s.cum))
	if len(s.cum) == 0 {
		s.cum = append(s.cum, 0)
	}
	for i := len(s.cum); i <= k; i++ {
		s.cum = append(s.cum, s.cum[i-1]+s.power[i-1])
	}
}

// grow reserves room for at least n more elements with at most one
// allocation, doubling capacity so that the unit-by-unit extension of the
// engine's boundary chain stays amortized O(1) (reserving exactly n would
// reallocate the whole table on every one-element tail extension).
func grow(s []float64, n int) []float64 {
	if cap(s)-len(s) >= n {
		return s
	}
	newCap := len(s) + n
	if d := 2 * cap(s); newCap < d {
		newCap = d
	}
	t := make([]float64, len(s), newCap)
	copy(t, s)
	return t
}

// PowerAt implements Source.
func (s *SolarModel) PowerAt(t float64) float64 {
	if t < 0 {
		panic("energy: PowerAt before t=0")
	}
	k := int(math.Floor(t))
	s.ensure(k)
	return s.power[k]
}

// CumulativeEnergy implements Cumulative: ∫₀ᵗ P in O(1) amortized from the
// prefix-sum table, which the first call builds and later calls extend.
func (s *SolarModel) CumulativeEnergy(t float64) float64 {
	if t < 0 {
		panic("energy: CumulativeEnergy before t=0")
	}
	k := int(math.Floor(t))
	s.ensure(k)
	if k >= len(s.cum) {
		s.extendCum(k)
	}
	e := s.cum[k]
	if frac := t - float64(k); frac > 0 {
		e += float64(s.power[k] * frac)
	}
	return e
}

// MeanPower implements Source: E[|N|]·E[cos²]·Amplitude = A·sqrt(2/π)/2.
func (s *SolarModel) MeanPower() float64 {
	return s.Amplitude * math.Sqrt(2/math.Pi) / 2
}

// Constant is the constant-power source assumed by Allavena & Mossé [4] —
// the assumption the paper calls "unpractical" but that remains useful for
// unit tests and sanity baselines.
type Constant struct {
	P float64
}

// NewConstant returns a constant source. Negative power panics;
// NewConstantChecked returns an error instead.
func NewConstant(p float64) Constant {
	c, err := NewConstantChecked(p)
	if err != nil {
		panic(err.Error())
	}
	return c
}

// NewConstantChecked is the error-returning variant of NewConstant.
func NewConstantChecked(p float64) (Constant, error) {
	if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
		return Constant{}, fmt.Errorf("energy: invalid constant power %v", p)
	}
	return Constant{P: p}, nil
}

func (c Constant) PowerAt(t float64) float64 { return c.P }
func (c Constant) MeanPower() float64        { return c.P }

// TwoMode is the coarse day/night solar model of Rusu et al. [5]: DayPower
// during the first DayLen units of every Period, NightPower for the rest.
type TwoMode struct {
	DayPower   float64
	NightPower float64
	Period     float64
	DayLen     float64
}

// NewTwoMode validates and returns a day/night source, panicking on
// invalid input; NewTwoModeChecked returns an error instead.
func NewTwoMode(day, night, period, dayLen float64) TwoMode {
	m, err := NewTwoModeChecked(day, night, period, dayLen)
	if err != nil {
		panic(err.Error())
	}
	return m
}

// NewTwoModeChecked is the error-returning variant of NewTwoMode.
func NewTwoModeChecked(day, night, period, dayLen float64) (TwoMode, error) {
	switch {
	case day < 0 || night < 0 || math.IsNaN(day) || math.IsNaN(night):
		return TwoMode{}, fmt.Errorf("energy: invalid two-mode powers day=%v night=%v", day, night)
	case period <= 0 || math.IsNaN(period) || math.IsInf(period, 0):
		return TwoMode{}, fmt.Errorf("energy: invalid two-mode period %v", period)
	case dayLen < 0 || dayLen > period || math.IsNaN(dayLen):
		return TwoMode{}, fmt.Errorf("energy: day length %v outside [0, %v]", dayLen, period)
	}
	return TwoMode{DayPower: day, NightPower: night, Period: period, DayLen: dayLen}, nil
}

func (m TwoMode) PowerAt(t float64) float64 {
	phase := math.Mod(t, m.Period)
	if phase < m.DayLen {
		return m.DayPower
	}
	return m.NightPower
}

func (m TwoMode) MeanPower() float64 {
	return (float64(m.DayPower*m.DayLen) + float64(m.NightPower*(m.Period-m.DayLen))) / m.Period
}

// Trace replays a recorded power profile: sample k applies on [k, k+1).
// Beyond the last sample the trace wraps around, modelling a repeating
// measured day. An empty trace is invalid.
type Trace struct {
	Samples []float64
}

// NewTrace validates and returns a trace source, panicking on invalid
// input; NewTraceChecked returns an error instead (traces usually come
// from files, so prefer the checked variant in CLI paths).
func NewTrace(samples []float64) *Trace {
	tr, err := NewTraceChecked(samples)
	if err != nil {
		panic(err.Error())
	}
	return tr
}

// NewTraceChecked is the error-returning variant of NewTrace.
func NewTraceChecked(samples []float64) (*Trace, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("energy: empty trace")
	}
	for i, s := range samples {
		if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("energy: invalid trace sample %v at %d", s, i)
		}
	}
	return &Trace{Samples: samples}, nil
}

func (tr *Trace) PowerAt(t float64) float64 {
	if t < 0 {
		panic("energy: PowerAt before t=0")
	}
	k := int(math.Floor(t)) % len(tr.Samples)
	return tr.Samples[k]
}

func (tr *Trace) MeanPower() float64 {
	sum := 0.0
	for _, s := range tr.Samples {
		sum += s
	}
	return sum / float64(len(tr.Samples))
}
