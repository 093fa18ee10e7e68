// Package fault injects reproducible substrate faults into a simulation
// run: harvester dropouts and brown-outs, storage capacity fade and
// leakage spikes, stuck DVFS transitions, predictor blackouts, and job
// overruns. The paper's evaluation (§5) assumes a well-behaved substrate;
// this package is how the repository asks "what happens when the model
// lies?" — the robustness dimension Berten et al. and Xia et al. show
// scheduler quality hinges on.
//
// Every injector draws its schedule from a dedicated deterministic RNG
// stream derived from Spec.Seed, independent of the workload and solar
// streams, so paired comparisons across policies (§5.2 "same condition")
// see the identical fault schedule and stay seed-stable. Fault windows are
// quantized to whole time units, which preserves the
// piecewise-constant-per-unit-interval contract of energy.Source that the
// engine's exact storage integration relies on.
package fault

import (
	"fmt"
	"math"

	"github.com/eadvfs/eadvfs/internal/metrics"
	"github.com/eadvfs/eadvfs/internal/rng"
)

// WindowSpec describes a recurring fault-window process: windows open
// after an exponentially distributed gap of mean MeanGap time units and
// stay open for an exponentially distributed duration of mean MeanLen.
// Both are quantized up to whole units (minimum 1). The zero value
// disables the process.
type WindowSpec struct {
	MeanGap float64
	MeanLen float64
}

// Enabled reports whether the window process generates any windows.
func (w WindowSpec) Enabled() bool { return w.MeanGap > 0 && w.MeanLen > 0 }

func (w WindowSpec) validate(name string) error {
	bad := func(v float64) bool { return v < 0 || math.IsNaN(v) || math.IsInf(v, 0) }
	if bad(w.MeanGap) || bad(w.MeanLen) {
		return fmt.Errorf("fault: %s window spec (gap %v, len %v) invalid", name, w.MeanGap, w.MeanLen)
	}
	if (w.MeanGap > 0) != (w.MeanLen > 0) {
		return fmt.Errorf("fault: %s window spec (gap %v, len %v) half-enabled", name, w.MeanGap, w.MeanLen)
	}
	return nil
}

// DutyCycle returns the long-run fraction of time a window is open.
func (w WindowSpec) DutyCycle() float64 {
	if !w.Enabled() {
		return 0
	}
	return w.MeanLen / (w.MeanGap + w.MeanLen)
}

// Spec declares which faults to inject and how hard. The zero value
// injects nothing; sim.Run with a zero (or nil) Spec is bit-identical to a
// fault-free run.
type Spec struct {
	// Seed selects the fault RNG stream (default 1). All injectors derive
	// child streams from it, so one seed pins the whole fault schedule.
	Seed uint64

	// Dropout opens harvester fault windows during which the source
	// output is multiplied by DropFactor: 0 is a full dropout, values in
	// (0, 1) are brown-outs. Windows are unit-aligned, so the source stays
	// piecewise-constant per unit interval.
	Dropout    WindowSpec
	DropFactor float64

	// FadeRate shrinks the storage capacity linearly by this fraction of
	// the original capacity per time unit, down to at most FadeLimit
	// (fraction of capacity lost, default 0.5 when fading is on). Stored
	// energy above the faded capacity is lost.
	FadeRate  float64
	FadeLimit float64

	// LeakSpike opens windows during which the store self-discharges at
	// an extra LeakSpikeRate energy per time unit.
	LeakSpike     WindowSpec
	LeakSpikeRate float64

	// DVFSStuck opens windows during which requested operating-point
	// changes are ignored: the processor stays at its current point
	// (stuck frequency / failed transition).
	DVFSStuck WindowSpec

	// Blackout opens windows during which predictor observations are
	// dropped, so forecasts go stale.
	Blackout WindowSpec

	// Each job independently overruns its declared WCET with probability
	// OverrunProb; the actual work is scaled by 1 + U(0, OverrunMax].
	// Draws are per (task, seq), independent of event order.
	OverrunProb float64
	OverrunMax  float64
}

// Enabled reports whether the spec injects any fault at all.
func (s Spec) Enabled() bool {
	return s.Dropout.Enabled() || s.FadeRate > 0 || (s.LeakSpike.Enabled() && s.LeakSpikeRate > 0) ||
		s.DVFSStuck.Enabled() || s.Blackout.Enabled() || s.OverrunProb > 0
}

// Validate checks the spec for structural errors (NaNs, negative rates,
// out-of-range fractions) so CLI-sourced values fail cleanly.
func (s Spec) Validate() error {
	for _, w := range []struct {
		name string
		spec WindowSpec
	}{
		{"dropout", s.Dropout}, {"leak-spike", s.LeakSpike},
		{"dvfs-stuck", s.DVFSStuck}, {"blackout", s.Blackout},
	} {
		if err := w.spec.validate(w.name); err != nil {
			return err
		}
	}
	switch {
	case s.DropFactor < 0 || s.DropFactor >= 1 || math.IsNaN(s.DropFactor):
		return fmt.Errorf("fault: drop factor %v outside [0, 1)", s.DropFactor)
	case s.FadeRate < 0 || math.IsNaN(s.FadeRate) || math.IsInf(s.FadeRate, 0):
		return fmt.Errorf("fault: invalid fade rate %v", s.FadeRate)
	case s.FadeLimit < 0 || s.FadeLimit >= 1 || math.IsNaN(s.FadeLimit):
		return fmt.Errorf("fault: fade limit %v outside [0, 1)", s.FadeLimit)
	case s.LeakSpikeRate < 0 || math.IsNaN(s.LeakSpikeRate) || math.IsInf(s.LeakSpikeRate, 0):
		return fmt.Errorf("fault: invalid leak spike rate %v", s.LeakSpikeRate)
	case s.OverrunProb < 0 || s.OverrunProb > 1 || math.IsNaN(s.OverrunProb):
		return fmt.Errorf("fault: overrun probability %v outside [0, 1]", s.OverrunProb)
	case s.OverrunMax < 0 || math.IsNaN(s.OverrunMax) || math.IsInf(s.OverrunMax, 0):
		return fmt.Errorf("fault: invalid overrun max %v", s.OverrunMax)
	case s.OverrunProb > 0 && s.OverrunMax == 0:
		return fmt.Errorf("fault: overrun probability %v with zero overrun max", s.OverrunProb)
	}
	return nil
}

// AtIntensity returns the canonical mixed-fault spec at intensity x in
// [0, 1]: every injector enabled, with window duty cycles and magnitudes
// scaling together. Intensity 0 is the zero spec (no faults); intensity 1
// is a hostile substrate: frequent multi-unit harvester blackouts, half
// the storage capacity fading away, leakage spikes comparable to the
// processor's mid-range draw, sticky DVFS, a blind predictor and one job
// in three overrunning its WCET by up to 50%.
func AtIntensity(seed uint64, x float64) Spec {
	if x <= 0 {
		return Spec{}
	}
	if x > 1 {
		x = 1
	}
	return Spec{
		Seed:          seed,
		Dropout:       WindowSpec{MeanGap: 200 / x, MeanLen: 2 + float64(18*x)},
		DropFactor:    0.2 * (1 - x),
		FadeRate:      5e-5 * x,
		FadeLimit:     0.5 * x,
		LeakSpike:     WindowSpec{MeanGap: 150 / x, MeanLen: 4 + float64(12*x)},
		LeakSpikeRate: 2 * x,
		DVFSStuck:     WindowSpec{MeanGap: 250 / x, MeanLen: 5 + float64(20*x)},
		Blackout:      WindowSpec{MeanGap: 100 / x, MeanLen: 3 + float64(12*x)},
		OverrunProb:   0.3 * x,
		OverrunMax:    0.5 * x,
	}
}

// RNG stream indices for the injectors, fixed so a spec's fault schedule
// never depends on which injectors are enabled.
const (
	streamDropout = iota + 1
	streamLeakSpike
	streamDVFSStuck
	streamBlackout
	streamOverrun
)

// Set is the per-run materialization of a Spec: the generated fault
// schedules plus the degradation counters they feed. A Set is stateful
// and single-run, like a Store or Predictor: construct a fresh one per
// simulation (sim.Run does this from Config.Faults). All methods are safe
// on a nil *Set and degrade to pass-through.
type Set struct {
	spec     Spec
	counters metrics.Degradation

	dropout   *windows
	leakSpike *windows
	dvfsStuck *windows
	blackout  *windows
	overrun   *rng.RNG
}

// New validates spec and materializes its injectors. A disabled spec
// returns (nil, nil): the nil Set is the documented "no faults" value.
func New(spec Spec) (*Set, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if !spec.Enabled() {
		return nil, nil
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	if spec.FadeRate > 0 && spec.FadeLimit == 0 {
		spec.FadeLimit = 0.5
	}
	r := rng.New(spec.Seed)
	return &Set{
		spec:      spec,
		dropout:   newWindows(spec.Dropout, r.Child(streamDropout)),
		leakSpike: newWindows(spec.LeakSpike, r.Child(streamLeakSpike)),
		dvfsStuck: newWindows(spec.DVFSStuck, r.Child(streamDVFSStuck)),
		blackout:  newWindows(spec.Blackout, r.Child(streamBlackout)),
		overrun:   r.Child(streamOverrun),
	}, nil
}

// Spec returns the (normalized) spec the set was built from.
func (s *Set) Spec() Spec {
	if s == nil {
		return Spec{}
	}
	return s.spec
}

// OverrunFactor returns the deterministic per-(task, seq) work multiplier:
// 1 for no overrun, otherwise in (1, 1+OverrunMax]. Counted as a
// degradation when > 1.
func (s *Set) OverrunFactor(taskID, seq int) float64 {
	if s == nil || s.spec.OverrunProb <= 0 {
		return 1
	}
	r := s.overrun.Child(uint64(taskID)<<32 ^ uint64(seq))
	if r.Float64() >= s.spec.OverrunProb {
		return 1
	}
	s.counters.Overruns++
	// 1 - Float64() is in (0, 1], so the overrun is strictly positive.
	return 1 + float64(s.spec.OverrunMax*(1-r.Float64()))
}

// AddOverrunWork accumulates work executed beyond declared WCETs (the
// engine knows the work amounts; the set owns the tally).
func (s *Set) AddOverrunWork(w float64) {
	if s != nil {
		s.counters.OverrunWork += w
	}
}

// DVFSLevel maps a policy's requested operating point through the DVFS
// fault: during a stuck window the processor keeps its current point.
// current < 0 means no point is latched yet (nothing to be stuck at).
func (s *Set) DVFSLevel(now float64, current, requested int) int {
	if s == nil || current < 0 || current == requested || !s.dvfsStuck.active(now) {
		return requested
	}
	s.counters.DVFSClamps++
	return current
}

// FinishAt folds the window schedules over [0, horizon] into the time
// counters. Call once, at the end of the run.
func (s *Set) FinishAt(horizon float64) {
	if s == nil {
		return
	}
	s.counters.SourceFaultTime = s.dropout.overlap(0, horizon)
	s.counters.LeakSpikeTime = s.leakSpike.overlap(0, horizon)
	s.counters.DVFSStuckTime = s.dvfsStuck.overlap(0, horizon)
	s.counters.BlackoutTime = s.blackout.overlap(0, horizon)
}

// Counters returns the degradation recorded so far.
func (s *Set) Counters() metrics.Degradation {
	if s == nil {
		return metrics.Degradation{}
	}
	return s.counters
}

// span is one fault window, [start, end), unit-aligned.
type span struct{ start, end float64 }

// windows is a lazily generated, memoized schedule of disjoint unit-aligned
// fault windows. Generation is a pure function of the seed: queries at any
// time (including out of order — the oracle predictor looks ahead) always
// observe the same schedule.
type windows struct {
	spec  WindowSpec
	r     *rng.RNG
	spans []span
	next  float64 // schedule generated for [0, next)
}

func newWindows(spec WindowSpec, r *rng.RNG) *windows {
	return &windows{spec: spec, r: r}
}

// ensure extends the generated schedule to cover time t.
func (w *windows) ensure(t float64) {
	if !w.spec.Enabled() {
		return
	}
	for w.next <= t {
		gap := math.Max(1, math.Ceil(w.r.Exponential(1/w.spec.MeanGap)))
		length := math.Max(1, math.Ceil(w.r.Exponential(1/w.spec.MeanLen)))
		start := w.next + gap
		w.spans = append(w.spans, span{start: start, end: start + length})
		w.next = start + length
	}
}

// active reports whether a fault window is open at time t.
func (w *windows) active(t float64) bool {
	if w == nil || !w.spec.Enabled() || t < 0 {
		return false
	}
	w.ensure(t)
	// Binary search for the last span starting at or before t.
	lo, hi := 0, len(w.spans)
	for lo < hi {
		mid := (lo + hi) / 2
		if w.spans[mid].start <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo > 0 && t < w.spans[lo-1].end
}

// overlap returns the total window time inside [t1, t2].
func (w *windows) overlap(t1, t2 float64) float64 {
	if w == nil || !w.spec.Enabled() || t2 <= t1 {
		return 0
	}
	w.ensure(t2)
	total := 0.0
	for _, sp := range w.spans {
		if sp.start >= t2 {
			break
		}
		lo := math.Max(sp.start, t1)
		hi := math.Min(sp.end, t2)
		if hi > lo {
			total += hi - lo
		}
	}
	return total
}
