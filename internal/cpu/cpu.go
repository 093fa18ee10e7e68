// Package cpu models the DVFS-enabled processor of the paper (§3.3, §5.1):
// N discrete operating points with increasing clock frequency and power.
// Speeds are normalized to the maximum frequency (S_n = f_n / f_max), so a
// job's worst-case execution time w (quoted at f_max) takes w/S_n at point
// n, and executing it there consumes P_n · w/S_n energy.
package cpu

import (
	"fmt"
	"math"
	"sort"
)

// OperatingPoint is one DVFS level.
type OperatingPoint struct {
	FreqMHz float64 // clock frequency, informational
	Power   float64 // power drawn while executing at this point
}

// Processor is an immutable DVFS processor description. Construct with New
// or a preset.
type Processor struct {
	points []OperatingPoint // ascending frequency
	speeds []float64        // points[i].FreqMHz / fmax

	// IdlePower is drawn whenever the processor is powered but not
	// executing. The paper treats idle power as zero (the storage
	// recharges while the system idles); non-zero values are supported
	// for ablations.
	idlePower float64

	// sleepStates are the optional DPM states (WithSleepStates); empty in
	// the paper's model. Each state's power must not exceed idlePower, so
	// an idle window a sleep state fits into is never cut short by
	// storage depletion the idle-power sustain check did not already see.
	sleepStates []SleepState
}

// SleepState is one DPM low-power state: the processor draws Power while
// asleep (less than the idle draw), pays EnterEnergy/ExitEnergy on the
// transitions, and needs WakeLatency of wall-clock time to become
// available again after a wake is initiated. The classic break-even rule
// gates entry: sleeping only pays off when the idle window is long enough
// to amortize the transition energy (SNIPPETS.md snippet 1's DPM angle).
type SleepState struct {
	Name        string
	Power       float64 // draw while asleep, <= the processor's idle power
	EnterEnergy float64 // energy to enter the state
	ExitEnergy  float64 // energy to leave the state
	WakeLatency float64 // time from wake initiation to availability
}

// WithSleepStates declares the processor's DPM sleep states, ordered
// shallow to deep. Validation against the idle power happens in New,
// after every option has been applied.
func WithSleepStates(states ...SleepState) Option {
	return func(c *Processor) { c.sleepStates = append([]SleepState(nil), states...) }
}

// Option configures optional processor features.
type Option func(*Processor)

// WithIdlePower sets a non-zero idle power draw.
func WithIdlePower(p float64) Option {
	if p < 0 {
		panic(fmt.Sprintf("cpu: negative idle power %v", p))
	}
	return func(c *Processor) { c.idlePower = p }
}

// New builds a processor from operating points. Points are sorted by
// frequency; frequencies must be positive and distinct, powers positive and
// strictly increasing with frequency (a dominated point — slower *and*
// hungrier — would never be selected and indicates a spec error).
func New(points []OperatingPoint, opts ...Option) *Processor {
	if len(points) == 0 {
		panic("cpu: no operating points")
	}
	pts := append([]OperatingPoint(nil), points...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].FreqMHz < pts[j].FreqMHz })
	for i, p := range pts {
		if p.FreqMHz <= 0 || math.IsNaN(p.FreqMHz) {
			panic(fmt.Sprintf("cpu: invalid frequency %v", p.FreqMHz))
		}
		if p.Power <= 0 || math.IsNaN(p.Power) {
			panic(fmt.Sprintf("cpu: invalid power %v", p.Power))
		}
		if i > 0 {
			if p.FreqMHz == pts[i-1].FreqMHz {
				panic(fmt.Sprintf("cpu: duplicate frequency %v", p.FreqMHz))
			}
			if p.Power <= pts[i-1].Power {
				panic(fmt.Sprintf("cpu: power not increasing at %v MHz", p.FreqMHz))
			}
		}
	}
	fmax := pts[len(pts)-1].FreqMHz
	speeds := make([]float64, len(pts))
	for i, p := range pts {
		speeds[i] = p.FreqMHz / fmax
	}
	c := &Processor{points: pts, speeds: speeds}
	for _, o := range opts {
		o(c)
	}
	for i, s := range c.sleepStates {
		switch {
		case s.Name == "":
			panic(fmt.Sprintf("cpu: sleep state %d without a name", i))
		case s.Power < 0 || math.IsNaN(s.Power):
			panic(fmt.Sprintf("cpu: sleep state %q: invalid power %v", s.Name, s.Power))
		case s.Power > c.idlePower:
			panic(fmt.Sprintf("cpu: sleep state %q: power %v exceeds idle power %v", s.Name, s.Power, c.idlePower))
		case s.EnterEnergy < 0 || math.IsNaN(s.EnterEnergy) || s.ExitEnergy < 0 || math.IsNaN(s.ExitEnergy):
			panic(fmt.Sprintf("cpu: sleep state %q: negative transition energy", s.Name))
		case s.WakeLatency < 0 || math.IsNaN(s.WakeLatency) || math.IsInf(s.WakeLatency, 0):
			panic(fmt.Sprintf("cpu: sleep state %q: invalid wake latency %v", s.Name, s.WakeLatency))
		}
		for _, prev := range c.sleepStates[:i] {
			if prev.Name == s.Name {
				panic(fmt.Sprintf("cpu: duplicate sleep state %q", s.Name))
			}
		}
	}
	return c
}

// XScale returns the paper's five-point processor "similar to Intel's
// XScale" (§5.1): 150/400/600/800/1000 MHz. Powers follow the paper's
// 80/400/1000/2000/3200 mW profile expressed in the repository's canonical
// power unit (DESIGN.md §5.3), i.e. divided by 1000 so that the eq. (13)
// source (mean ≈ 4.0) can sustain the processor (P_max = 3.2).
func XScale() *Processor {
	return New([]OperatingPoint{
		{FreqMHz: 150, Power: 0.08},
		{FreqMHz: 400, Power: 0.4},
		{FreqMHz: 600, Power: 1.0},
		{FreqMHz: 800, Power: 2.0},
		{FreqMHz: 1000, Power: 3.2},
	})
}

// XScaleScaled returns the XScale frequency/power profile with all powers
// scaled so the maximum power equals pmax. The paper quotes the XScale
// table in mW but runs harvest, storage and energy in unnamed units; the
// relative powers are physical, the absolute scale is the experiment's
// calibration knob (DESIGN.md §5.3).
func XScaleScaled(pmax float64) *Processor {
	if pmax <= 0 {
		panic("cpu: non-positive pmax")
	}
	base := []float64{80, 400, 1000, 2000, 3200}
	freqs := []float64{150, 400, 600, 800, 1000}
	pts := make([]OperatingPoint, len(base))
	for i := range base {
		pts[i] = OperatingPoint{FreqMHz: freqs[i], Power: base[i] / 3200 * pmax}
	}
	return New(pts)
}

// XScaleMilliwatts returns the same processor with powers in the paper's
// literal milliwatt figures, for users who work in mW/mJ units throughout.
func XScaleMilliwatts() *Processor {
	return New([]OperatingPoint{
		{FreqMHz: 150, Power: 80},
		{FreqMHz: 400, Power: 400},
		{FreqMHz: 600, Power: 1000},
		{FreqMHz: 800, Power: 2000},
		{FreqMHz: 1000, Power: 3200},
	})
}

// TwoSpeed returns the two-point processor of the paper's motivational
// example (§2): a high speed and a low speed, "the former twice as fast as
// the latter. The power at high speed is 3 times as much as that in low
// speed", with P_max = pmax.
func TwoSpeed(pmax float64) *Processor {
	if pmax <= 0 {
		panic("cpu: non-positive pmax")
	}
	return New([]OperatingPoint{
		{FreqMHz: 500, Power: pmax / 3},
		{FreqMHz: 1000, Power: pmax},
	})
}

// Fig3 returns the processor of the paper's §4.3 example: f_n = 0.25·f_max
// with P_n = 1 and P_max = 8 (intermediate points filled per a cubic-ish
// spec are unnecessary — the example only exercises these two points).
func Fig3() *Processor {
	return New([]OperatingPoint{
		{FreqMHz: 250, Power: 1},
		{FreqMHz: 1000, Power: 8},
	})
}

// PXA270 returns a six-point profile with the PXA270's frequency ladder
// (104–624 MHz) and a convex active-power envelope representative of the
// part, in watts. Useful for checking that results do not hinge on the
// XScale table's particular shape.
func PXA270() *Processor {
	return New([]OperatingPoint{
		{FreqMHz: 104, Power: 0.116},
		{FreqMHz: 208, Power: 0.250},
		{FreqMHz: 312, Power: 0.420},
		{FreqMHz: 416, Power: 0.640},
		{FreqMHz: 520, Power: 0.900},
		{FreqMHz: 624, Power: 1.200},
	})
}

// SensorNodeMCU returns a two-point profile representative of a
// sensor-node microcontroller with a run mode and a throttled mode — the
// platform class of the paper's motivating deployments (Heliomote,
// Prometheus). Powers in milliwatts.
func SensorNodeMCU() *Processor {
	return New([]OperatingPoint{
		{FreqMHz: 4, Power: 3},
		{FreqMHz: 8, Power: 8},
	})
}

// Cubic generates an n-point processor whose power follows the classic
// CMOS model P = k·f³ + staticPower, evenly spaced from fmax/n to fmax.
// Useful for sensitivity studies on the number of DVFS levels.
func Cubic(n int, fmaxMHz, pmax, static float64) *Processor {
	if n <= 0 {
		panic("cpu: non-positive point count")
	}
	if fmaxMHz <= 0 || pmax <= static || static < 0 {
		panic("cpu: invalid cubic spec")
	}
	k := (pmax - static) / math.Pow(fmaxMHz, 3)
	pts := make([]OperatingPoint, n)
	for i := 0; i < n; i++ {
		f := fmaxMHz * float64(i+1) / float64(n)
		// float64(...) rounds the product: no fused multiply-add on any GOARCH.
		pts[i] = OperatingPoint{FreqMHz: f, Power: static + float64(k*math.Pow(f, 3))}
	}
	return New(pts)
}

// Levels returns the number of operating points N.
func (c *Processor) Levels() int { return len(c.points) }

// Speed returns S_n = f_n / f_max in (0, 1].
func (c *Processor) Speed(n int) float64 {
	c.checkLevel(n)
	return c.speeds[n]
}

// Power returns P_n.
func (c *Processor) Power(n int) float64 {
	c.checkLevel(n)
	return c.points[n].Power
}

// MaxLevel returns the index of the fastest point (N-1).
func (c *Processor) MaxLevel() int { return len(c.points) - 1 }

// ClampLevel returns n clamped into the valid operating-point range
// [0, N). Unlike the accessors, it never panics: fault injection and
// other adversarial layers use it to keep a perturbed level selection
// inside the hardware's table.
func (c *Processor) ClampLevel(n int) int {
	if n < 0 {
		return 0
	}
	if n >= len(c.points) {
		return len(c.points) - 1
	}
	return n
}

// MaxPower returns P_max.
func (c *Processor) MaxPower() float64 { return c.points[len(c.points)-1].Power }

// IdlePower returns the idle draw (0 in the paper's model).
func (c *Processor) IdlePower() float64 { return c.idlePower }

// ExecTime returns how long work units of f_max-time take at level n.
func (c *Processor) ExecTime(work float64, n int) float64 {
	if work < 0 {
		panic(fmt.Sprintf("cpu: negative work %v", work))
	}
	return work / c.Speed(n)
}

// ExecEnergy returns the energy to execute work units of f_max-time at
// level n: P_n · work / S_n.
func (c *Processor) ExecEnergy(work float64, n int) float64 {
	return c.Power(n) * c.ExecTime(work, n)
}

// MinLevelFor returns the lowest operating point n that satisfies the
// paper's inequality (6): work/S_n <= window, i.e. the job still meets its
// deadline. The boolean is false when even f_max cannot fit the work in the
// window (the caller then runs flat-out and the deadline will be missed).
// A non-positive window with positive work is infeasible; zero work is
// feasible at the lowest point.
func (c *Processor) MinLevelFor(work, window float64) (int, bool) {
	if work < 0 {
		panic(fmt.Sprintf("cpu: negative work %v", work))
	}
	if work == 0 {
		return 0, true
	}
	if window <= 0 {
		return c.MaxLevel(), false
	}
	for n := 0; n < len(c.points); n++ {
		if work/c.speeds[n] <= window {
			return n, true
		}
	}
	return c.MaxLevel(), false
}

// EnergyPerWork returns P_n / S_n — the energy cost of one unit of work at
// level n. For any sensible DVFS table this is increasing in n, which is
// exactly why stretching saves energy; exposed for tests and analysis.
func (c *Processor) EnergyPerWork(n int) float64 {
	return c.Power(n) / c.Speed(n)
}

func (c *Processor) checkLevel(n int) {
	if n < 0 || n >= len(c.points) {
		c.levelOutOfRange(n)
	}
}

// levelOutOfRange panics for checkLevel. Kept out of line so the level
// accessors on the engine's hot path (Speed, Power) stay inlinable.
//
//go:noinline
func (c *Processor) levelOutOfRange(n int) {
	panic(fmt.Sprintf("cpu: level %d outside [0, %d)", n, len(c.points)))
}

// SleepLevels returns the number of declared DPM sleep states (0 in the
// paper's model).
func (c *Processor) SleepLevels() int { return len(c.sleepStates) }

// SleepState returns sleep state i.
func (c *Processor) SleepState(i int) SleepState {
	if i < 0 || i >= len(c.sleepStates) {
		panic(fmt.Sprintf("cpu: sleep state %d outside [0, %d)", i, len(c.sleepStates)))
	}
	return c.sleepStates[i]
}

// BreakEven returns the minimal time asleep in state i for the transition
// energy to pay off against plain idling:
//
//	(idle − sleep) · T >= Enter + Exit  ⇒  T_be = (Enter+Exit)/(idle−sleep).
//
// +Inf when the state saves no power over idling (it is then never
// eligible).
func (c *Processor) BreakEven(i int) float64 {
	s := c.SleepState(i)
	saving := c.idlePower - s.Power
	if saving <= 0 {
		return math.Inf(1)
	}
	return (s.EnterEnergy + s.ExitEnergy) / saving
}

// DeepestSleepFor returns the index of the lowest-power sleep state whose
// break-even time plus wake latency fits the guaranteed idle window, or
// -1 when none does (ties keep the first declared). This is the gate of
// the engine's idle manager: a state that does not fit is a net loss, so
// the processor stays in plain idle.
func (c *Processor) DeepestSleepFor(window float64) int {
	best := -1
	for i := range c.sleepStates {
		s := c.sleepStates[i]
		if window < c.BreakEven(i)+s.WakeLatency || window <= s.WakeLatency {
			continue
		}
		if best < 0 || s.Power < c.sleepStates[best].Power {
			best = i
		}
	}
	return best
}

// DefaultSleepStates returns a two-state nap/deep DPM ladder scaled to an
// idle power draw: a shallow state with a short break-even and a deep
// state that nearly powers down but costs real transition energy and a
// long wake latency. Representative of sensor-node MCU sleep modes.
func DefaultSleepStates(idle float64) []SleepState {
	if idle < 0 {
		panic(fmt.Sprintf("cpu: negative idle power %v", idle))
	}
	return []SleepState{
		{Name: "nap", Power: 0.3 * idle, EnterEnergy: 0.1 * idle, ExitEnergy: 0.1 * idle, WakeLatency: 0.05},
		{Name: "deep", Power: 0.02 * idle, EnterEnergy: 0.5 * idle, ExitEnergy: 0.5 * idle, WakeLatency: 0.5},
	}
}

// SleepPreset resolves a named DPM configuration for wire-level specs:
// "" and "none" mean no DPM (zero idle power, no states); "default" is
// the DefaultSleepStates ladder over an idle draw of 5% of pmax. The
// returned idle power and states are applied together (WithIdlePower +
// WithSleepStates) — DPM is only meaningful against a non-zero idle draw.
func SleepPreset(name string, pmax float64) (idle float64, states []SleepState, err error) {
	switch name {
	case "", "none":
		return 0, nil, nil
	case "default":
		idle = 0.05 * pmax
		return idle, DefaultSleepStates(idle), nil
	default:
		return 0, nil, fmt.Errorf("cpu: unknown sleep preset %q", name)
	}
}

// SleepPresetNames enumerates the named DPM configurations SleepPreset
// resolves, in stable order ("none" first — the paper's DPM-free model).
// The capabilities document serves the list so a coordinator can plan
// sleep ablations against a worker build without guessing names.
func SleepPresetNames() []string { return []string{"none", "default"} }

// WithSleepPreset returns the processor with the named DPM configuration
// (SleepPreset) attached: a copy carrying the preset's idle power and
// sleep states, revalidated through New, or c itself when the preset
// names no sleep machinery ("", "none"). The preset constructors
// (XScale, TwoSpeed, …) build their operating-point tables without
// options; this is how the wire layers (eadvfs.Config.Sleep,
// experiment.Spec.Sleep, runspec.Spec.Sleep) bolt a preset onto one of
// them after the fact.
func (c *Processor) WithSleepPreset(name string) (*Processor, error) {
	idle, states, err := SleepPreset(name, c.MaxPower())
	if err != nil {
		return nil, err
	}
	if idle == 0 && len(states) == 0 {
		return c, nil
	}
	return New(c.points,
		WithIdlePower(idle),
		WithSleepStates(states...)), nil
}
