// Package offline implements a frame-based offline DVFS scheduler in the
// spirit of Allavena & Mossé [4] — the prior art the paper contrasts
// EA-DVFS against. A set of independent tasks must each run once per
// frame; the harvested power is assumed *constant* (the very assumption
// the paper calls "unpractical", §1); the planner picks slowdowns offline
// so that the frame is met and the battery never runs dry.
//
// The planner uses the classic two-speed result for discrete DVFS
// (Ishihara & Yasuura): the minimum-energy discrete schedule that exactly
// fills the available time uses at most the two operating points adjacent
// to the ideal continuous speed. Execution is placed as late as possible
// in the frame (run the slow portion first, then the fast portion), so
// the battery charges before it drains — the same laziness that LSA and
// EA-DVFS apply online.
package offline

import (
	"errors"
	"fmt"
	"math"

	"github.com/eadvfs/eadvfs/internal/cpu"
)

// FrameSpec describes one planning problem.
type FrameSpec struct {
	// Frame is the common period/deadline F shared by all tasks.
	Frame float64
	// WCETs are the tasks' worst-case execution times at f_max; each
	// task runs once per frame.
	WCETs []float64
	// RechargePower is the constant harvested power P_r.
	RechargePower float64
	// InitialEnergy is the battery level at the frame start.
	InitialEnergy float64
	// Capacity is the battery capacity (math.Inf(1) for unbounded).
	Capacity float64
}

// Validate checks the spec.
func (s FrameSpec) Validate() error {
	switch {
	case s.Frame <= 0 || math.IsNaN(s.Frame) || math.IsInf(s.Frame, 0):
		return fmt.Errorf("offline: invalid frame %v", s.Frame)
	case len(s.WCETs) == 0:
		return errors.New("offline: no tasks")
	case s.RechargePower < 0 || math.IsNaN(s.RechargePower):
		return fmt.Errorf("offline: invalid recharge power %v", s.RechargePower)
	case s.InitialEnergy < 0 || math.IsNaN(s.InitialEnergy):
		return fmt.Errorf("offline: invalid initial energy %v", s.InitialEnergy)
	case s.Capacity < s.InitialEnergy:
		return fmt.Errorf("offline: capacity %v below initial energy %v", s.Capacity, s.InitialEnergy)
	}
	for i, w := range s.WCETs {
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("offline: invalid wcet %v for task %d", w, i)
		}
	}
	return nil
}

// TotalWork returns Σ w_i.
func (s FrameSpec) TotalWork() float64 {
	sum := 0.0
	for _, w := range s.WCETs {
		sum += w
	}
	return sum
}

// Plan is an offline schedule for one frame: run SlowTime at SlowLevel,
// then FastTime at FastLevel, starting at Start and ending exactly at the
// frame boundary. SlowLevel == FastLevel when a single point suffices.
type Plan struct {
	SlowLevel int
	FastLevel int
	SlowTime  float64 // wall-clock time at SlowLevel
	FastTime  float64 // wall-clock time at FastLevel

	Start     float64 // latest feasible start of execution in the frame
	Energy    float64 // processor energy consumed over the frame
	EndEnergy float64 // battery level at the frame end
	PeakDraw  float64 // largest battery drawdown during execution
}

// BusyTime returns the total execution wall-clock time.
func (p Plan) BusyTime() float64 { return p.SlowTime + p.FastTime }

// Solve computes the minimum-energy feasible plan for the spec on the
// given processor, or an error when no discrete plan is time- and
// energy-feasible.
func Solve(proc *cpu.Processor, spec FrameSpec) (Plan, error) {
	if proc == nil {
		return Plan{}, errors.New("offline: nil processor")
	}
	if err := spec.Validate(); err != nil {
		return Plan{}, err
	}
	work := spec.TotalWork()

	// Time feasibility at full speed is the outer bound.
	if work/proc.Speed(proc.MaxLevel()) > spec.Frame+1e-12 {
		return Plan{}, fmt.Errorf("offline: %v work cannot fit a frame of %v even at f_max", work, spec.Frame)
	}

	// Candidate plans, slowest (and therefore cheapest) first: for each
	// level n, either all work at n (if it fits the frame), or the
	// two-point split between n and n+1 that exactly fills the frame.
	for n := 0; n < proc.Levels(); n++ {
		tAll := work / proc.Speed(n)
		var cand Plan
		switch {
		case tAll <= spec.Frame+1e-12:
			cand = Plan{SlowLevel: n, FastLevel: n, SlowTime: tAll}
		case n+1 < proc.Levels():
			// Split work between n (slow) and n+1 (fast) to exactly
			// fill the frame: solve
			//   wS/S_n + wF/S_{n+1} = F,  wS + wF = work.
			sn, sf := proc.Speed(n), proc.Speed(n+1)
			wFast := (work/sn - spec.Frame) * sf * sn / (sf - sn)
			wSlow := work - wFast
			if wFast < -1e-9 || wSlow < -1e-9 {
				continue
			}
			if wFast/sf > spec.Frame {
				continue // even the fast portion alone overflows: try higher n
			}
			cand = Plan{
				SlowLevel: n, FastLevel: n + 1,
				SlowTime: wSlow / sn, FastTime: wFast / sf,
			}
		default:
			continue
		}
		finished := finalize(proc, spec, &cand)
		if finished {
			return cand, nil
		}
		// Energy-infeasible at this slowdown. A *higher* level finishes
		// faster but burns strictly more energy per work unit, so it
		// cannot become feasible either — unless laziness interacts with
		// the capacity clamp; keep scanning for robustness.
	}
	return Plan{}, errors.New("offline: no energy-feasible plan — the recharge power cannot sustain the frame")
}

// finalize computes the lazy start, the energy accounting and the battery
// trajectory of a candidate; it reports energy feasibility.
func finalize(proc *cpu.Processor, spec FrameSpec, p *Plan) bool {
	busy := p.BusyTime()
	p.Start = spec.Frame - busy

	pSlow := proc.Power(p.SlowLevel)
	pFast := proc.Power(p.FastLevel)
	p.Energy = float64(pSlow*p.SlowTime) + float64(pFast*p.FastTime)

	// Battery trajectory with the slow phase first (slow draw before
	// fast draw keeps the minimum level as high as possible).
	level := math.Min(spec.Capacity, spec.InitialEnergy+float64(spec.RechargePower*p.Start))
	startLevel := level
	// Slow phase.
	level += float64((spec.RechargePower - pSlow) * p.SlowTime)
	if level > spec.Capacity {
		level = spec.Capacity
	}
	minLevel := math.Min(startLevel, level)
	// Fast phase.
	level += float64((spec.RechargePower - pFast) * p.FastTime)
	if level > spec.Capacity {
		level = spec.Capacity
	}
	minLevel = math.Min(minLevel, level)

	p.EndEnergy = level
	p.PeakDraw = startLevel - minLevel
	// Within each phase the level is monotone, so phase-boundary minima
	// are the trajectory minima.
	return minLevel >= -1e-9
}

// ContinuousLowerBound returns the energy of the ideal continuous-speed
// schedule (speed = work/F exactly, power interpolated cubically between
// the bracketing discrete points' energy efficiency). It lower-bounds any
// discrete plan and is used by the benches to report how close the
// two-point plan gets.
func ContinuousLowerBound(proc *cpu.Processor, spec FrameSpec) (float64, error) {
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	work := spec.TotalWork()
	sIdeal := work / spec.Frame
	if sIdeal > proc.Speed(proc.MaxLevel()) {
		return 0, errors.New("offline: infeasible even continuously")
	}
	// Below the slowest point the bound is the slowest point stretched.
	if sIdeal <= proc.Speed(0) {
		return proc.ExecEnergy(work, 0), nil
	}
	for n := 0; n+1 < proc.Levels(); n++ {
		lo, hi := proc.Speed(n), proc.Speed(n+1)
		if sIdeal > hi {
			continue
		}
		// The exact-fill two-point schedule spends time fraction x at
		// the faster point, where the time-average speed equals sIdeal:
		// (1-x)·S_n + x·S_{n+1} = sIdeal. Its energy is the same
		// time-weighted average of the powers over the whole frame —
		// the tight bound for discrete DVFS (Ishihara–Yasuura).
		x := (sIdeal - lo) / (hi - lo)
		power := float64((1-x)*proc.Power(n)) + float64(x*proc.Power(n+1))
		return power * spec.Frame, nil
	}
	return proc.ExecEnergy(work, proc.MaxLevel()), nil
}
