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

// Spec declares a run's fault model: one intensity and one seed. The zero
// value injects nothing; sim.Run with a zero Spec is bit-identical to a
// fault-free run.
type Spec struct {
	// Seed selects the fault RNG stream (0 means 1). All injectors derive
	// child streams from it, so one seed pins the whole fault schedule.
	Seed uint64

	// Intensity, in [0, 1], scales every injector together: window duty
	// cycles and magnitudes grow with it. 0 injects nothing; 1 is a
	// hostile substrate: frequent multi-unit harvester blackouts, half
	// the storage capacity fading away, leakage spikes comparable to the
	// processor's mid-range draw, sticky DVFS, a blind predictor and one
	// job in three overrunning its WCET by up to 50%.
	Intensity float64
}

// RNG stream indices for the injectors, fixed so each injector's schedule
// is a function of the seed alone.
const (
	streamDropout = iota + 1
	streamLeakSpike
	streamDVFSStuck
	streamBlackout
	streamOverrun
)

// Set is the per-run materialization of a Spec: the injector parameters
// derived from the intensity, the generated fault schedules and the
// degradation counters they feed. A Set is stateful and single-run, like
// a Store or Predictor: construct a fresh one per simulation (sim.Run
// does this from Config.Faults). All methods are safe on a nil *Set and
// degrade to pass-through.
type Set struct {
	counters metrics.Degradation

	// Harvester dropout windows multiply the source output by dropFactor:
	// 0 is a full dropout, values in (0, 1) are brown-outs.
	dropout    *windows
	dropFactor float64

	// Storage capacity fades linearly by fadeRate of the original
	// capacity per time unit, down to at most fadeLimit of it lost;
	// stored energy above the faded capacity is lost.
	fadeRate, fadeLimit float64

	// Leak-spike windows add leakSpikeRate energy per time unit of
	// self-discharge.
	leakSpike     *windows
	leakSpikeRate float64

	// DVFS-stuck windows ignore requested operating-point changes, and
	// blackout windows drop predictor observations.
	dvfsStuck *windows
	blackout  *windows

	// Each job independently overruns its declared WCET with probability
	// overrunProb, its work scaled by 1 + U(0, overrunMax]. Draws are per
	// (task, seq), independent of event order: each job reseeds overrunJob
	// from the overrun stream in place.
	overrun     *rng.RNG
	overrunJob  rng.RNG
	overrunProb float64
	overrunMax  float64
}

// New checks spec and derives its injectors from the intensity x; every
// injector is on at any x in (0, 1]. Intensity 0 returns (nil, nil), the
// documented "no faults" value. The smallest positive intensities are
// refused: their mean window gaps (up to 250/x) overflow.
func New(spec Spec) (*Set, error) {
	x := spec.Intensity
	switch {
	case !(x >= 0 && x <= 1):
		return nil, fmt.Errorf("fault: intensity %v outside [0, 1]", x)
	case x == 0:
		return nil, nil
	case math.IsInf(250/x, 1):
		return nil, fmt.Errorf("fault: intensity %v too small: its mean window gaps overflow", x)
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	r := rng.New(seed)
	return &Set{
		dropout:       newWindows(200/x, 2+float64(18*x), r.Child(streamDropout)),
		dropFactor:    0.2 * (1 - x),
		fadeRate:      5e-5 * x,
		fadeLimit:     0.5 * x,
		leakSpike:     newWindows(150/x, 4+float64(12*x), r.Child(streamLeakSpike)),
		leakSpikeRate: 2 * x,
		dvfsStuck:     newWindows(250/x, 5+float64(20*x), r.Child(streamDVFSStuck)),
		blackout:      newWindows(100/x, 3+float64(12*x), r.Child(streamBlackout)),
		overrun:       r.Child(streamOverrun),
		overrunProb:   0.3 * x,
		overrunMax:    0.5 * x,
	}, nil
}

// OverrunFactor returns the deterministic per-(task, seq) work multiplier:
// 1 for no overrun, otherwise in (1, 1+overrunMax]. Counted as a
// degradation when > 1.
func (s *Set) OverrunFactor(taskID, seq int) float64 {
	if s == nil {
		return 1
	}
	r := &s.overrunJob
	s.overrun.ChildInto(r, uint64(taskID)<<32^uint64(seq))
	if r.Float64() >= s.overrunProb {
		return 1
	}
	s.counters.Overruns++
	// 1 - Float64() is in (0, 1], so the overrun is strictly positive.
	return 1 + float64(s.overrunMax*(1-r.Float64()))
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
// fault windows: each opens after an exponentially distributed gap of mean
// meanGap time units and stays open for an exponentially distributed
// duration of mean meanLen, both quantized up to whole units (minimum 1).
// Generation is a pure function of the seed: queries at any time
// (including out of order — the oracle predictor looks ahead) always
// observe the same schedule.
type windows struct {
	meanGap, meanLen float64
	r                *rng.RNG
	spans            []span
	next             float64 // schedule generated for [0, next)
}

func newWindows(meanGap, meanLen float64, r *rng.RNG) *windows {
	return &windows{meanGap: meanGap, meanLen: meanLen, r: r}
}

// dutyCycle returns the long-run fraction of time a window is open.
func (w *windows) dutyCycle() float64 { return w.meanLen / (w.meanGap + w.meanLen) }

// ensure extends the generated schedule to cover time t.
func (w *windows) ensure(t float64) {
	for w.next <= t {
		gap := math.Max(1, math.Ceil(w.r.Exponential(1/w.meanGap)))
		length := math.Max(1, math.Ceil(w.r.Exponential(1/w.meanLen)))
		start := w.next + gap
		w.spans = append(w.spans, span{start: start, end: start + length})
		w.next = start + length
	}
}

// active reports whether a fault window is open at time t.
func (w *windows) active(t float64) bool {
	if t < 0 {
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
	if t2 <= t1 {
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
