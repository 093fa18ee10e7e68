// Package core implements the paper's contribution: the energy aware
// dynamic voltage and frequency selection (EA-DVFS) algorithm of §4.
//
// At every scheduling decision the algorithm examines the earliest-deadline
// ready job and asks how long the system could keep running on the energy
// available in the job's window — at the chosen slow frequency (sr_n,
// eq. 5) and at full speed (sr_max, eq. 9). Those run times induce the
// latest feasible start times s1 (eq. 7) and s2 (eq. 8). When both collapse
// to "now", energy is plentiful and the job runs at full speed; otherwise
// the job is stretched at the minimum feasible frequency until s2 and only
// then forced to full speed, so that it cannot steal time from future jobs
// (§4.3, Figure 3).
package core

import (
	"math"

	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/sched"
)

// Plan is the result of the EA-DVFS §4 computation for one job at one
// instant — eqs. (5)–(9) evaluated on the current state.
type Plan struct {
	// Available is EA = EC(now) + ÊS(now, deadline) — the energy the
	// system expects to dispose of inside the job's window.
	Available float64
	// Level is the minimum operating point satisfying ineq. (6):
	// remaining/S_n <= deadline - now.
	Level int
	// Feasible is false when even full speed cannot finish the remaining
	// work by the deadline; Level is then the maximum level.
	Feasible bool
	// SRn is sr_n = Available / P_n (eq. 5).
	SRn float64
	// SRmax is sr_max = Available / P_max (eq. 9).
	SRmax float64
	// S1 = max(now, deadline - sr_n) (eq. 7).
	S1 float64
	// S2 = max(now, deadline - sr_max) (eq. 8).
	S2 float64
}

// ComputePlan evaluates eqs. (5)–(9) for a job with the given remaining
// work (at f_max) and absolute deadline, using the energy available.
// The paper states them in terms of the release instant a_m; evaluating at
// the current instant with remaining work coincides at release and is the
// consistent generalization under preemption (DESIGN.md §2.1).
func ComputePlan(p *cpu.Processor, available, now, deadline, remaining float64) Plan {
	if remaining < 0 {
		panic("core: negative remaining work")
	}
	if available < 0 {
		// Predictors never return negative energy and stored energy is
		// non-negative, but guard the algebra anyway.
		available = 0
	}
	level, feasible := p.MinLevelFor(remaining, deadline-now)
	plan := Plan{
		Available: available,
		Level:     level,
		Feasible:  feasible,
		SRn:       available / p.Power(level),
		SRmax:     available / p.MaxPower(),
	}
	plan.S1 = max(now, deadline-plan.SRn)
	plan.S2 = max(now, deadline-plan.SRmax)
	return plan
}

// SufficientEnergy reports the paper's s1 = s2 test (§4.3 step 4a): both
// start times collapse to the evaluation instant, meaning the system can
// run flat-out from now to the deadline without exhausting the available
// energy — so no slow-down is warranted. The boundary tolerance is the
// shared sched.TimeEps, so every policy in the repository ties exactly the
// same way.
func (pl Plan) SufficientEnergy(now float64) bool {
	return sched.Reached(now, pl.S1) && sched.Reached(now, pl.S2)
}

// EADVFS is the paper's algorithm as a scheduling policy (Figure 4).
//
// The s2 instant of a job is *locked* the first time the job starts
// stretched execution. The paper computes s1/s2 from the release instant
// (eqs. 7–8 use a_m) and its §4.3 walkthrough depends on the switch
// happening at that original s2: recomputing s2 from the current energy
// state while already stretching pushes s2 later every time (stretching
// preserves energy, so "run flat-out until the deadline" keeps looking
// affordable), and the job ends up stretched to completion — exactly the
// greedy pathology Figure 3 exists to rule out. Locking reproduces the
// paper's "finishes τ1 at 13" arithmetic; the Dynamic variant below keeps
// the fully stateless recomputation as an ablation.
type EADVFS struct {
	// Dynamic recomputes s2 at every decision instead of locking it at
	// stretch start. Only for the ablation study; see above.
	Dynamic bool
}

// The lock itself lives on the job (task.Job.LockS2 and friends): a job
// belongs to exactly one run, so a job-resident slot replaces the former
// map[*task.Job]float64 and keeps the decision path allocation-free.

// NewEADVFS returns the paper's EA-DVFS policy (locked s2).
func NewEADVFS() *EADVFS {
	return &EADVFS{}
}

// NewDynamicEADVFS returns the stateless-recompute ablation variant.
func NewDynamicEADVFS() *EADVFS {
	return &EADVFS{Dynamic: true}
}

// Name implements sched.Policy.
func (p *EADVFS) Name() string {
	if p.Dynamic {
		return "ea-dvfs-dynamic"
	}
	return "ea-dvfs"
}

// Decide implements sched.Policy, following Figure 4:
//
//	line 3:  pick the earliest-deadline ready job
//	line 4:  compute s1 and s2
//	line 5:  s1 = s2        → run at maximum frequency
//	line 8:  s1 < s2        → run at f_n (power P_n) ...
//	line 10: ... and at maximum frequency from s2 onward
//
// plus the implicit "do not start before s1": starting earlier than s1
// would begin draining the store before the last feasible moment; delaying
// to s1 lets the store recharge, which is what makes both LSA and EA-DVFS
// "lazy". Before s1 the processor idles.
func (p *EADVFS) Decide(ctx *sched.Context) sched.Decision {
	j := ctx.Queue.Peek()
	if j == nil {
		ctx.AuditJob(p.Name(), nil, 0, 0, 0, -1, math.Inf(1), obs.ReasonIdleNoJob)
		return sched.Idle(math.Inf(1))
	}
	plan := ComputePlan(ctx.CPU, ctx.AvailableEnergy(j.Abs), ctx.Now, j.Abs, j.Remaining())

	if !plan.Feasible {
		// Even f_max cannot meet the deadline; run flat-out and let the
		// engine account the miss — the paper's model never drops work
		// before its deadline passes.
		ctx.AuditJob(p.Name(), j, plan.Available, plan.S1, plan.S2,
			ctx.CPU.MaxLevel(), math.Inf(1), obs.ReasonFullSpeedInfeasible)
		return sched.Run(j, ctx.CPU.MaxLevel(), math.Inf(1))
	}
	if plan.SufficientEnergy(ctx.Now) {
		// Figure 4 line 5: sufficient energy → maximum frequency. A
		// pending lock is obsolete: running at full speed can only help
		// future tasks.
		j.ClearS2Lock()
		ctx.AuditJob(p.Name(), j, plan.Available, plan.S1, plan.S2,
			ctx.CPU.MaxLevel(), math.Inf(1), obs.ReasonFullSpeedEnergyRich)
		return sched.Run(j, ctx.CPU.MaxLevel(), math.Inf(1))
	}

	s2 := plan.S2
	if !p.Dynamic {
		if locked, ok := j.S2Lock(); ok {
			s2 = locked
		}
	}
	if sched.Reached(ctx.Now, s2) {
		// Figure 4 line 10: past s2 the job must run at full speed so it
		// does not steal time from future tasks (§4.3).
		ctx.AuditJob(p.Name(), j, plan.Available, plan.S1, s2,
			ctx.CPU.MaxLevel(), math.Inf(1), obs.ReasonFullSpeedEnergyPoor)
		return sched.Run(j, ctx.CPU.MaxLevel(), math.Inf(1))
	}
	if !sched.Reached(ctx.Now, plan.S1) {
		// Energy-infeasible to start yet even at the slow level: idle and
		// recharge until s1 (re-evaluated on every event in between).
		ctx.AuditJob(p.Name(), j, plan.Available, plan.S1, s2,
			-1, plan.S1, obs.ReasonIdleRecharge)
		return sched.Idle(plan.S1)
	}
	// Figure 4 line 8: stretched execution at the minimum feasible
	// frequency on [s1, s2). Lock s2 on first stretch (see type comment).
	if !p.Dynamic {
		if _, ok := j.S2Lock(); !ok {
			j.LockS2(s2)
		}
	}
	ctx.AuditJob(p.Name(), j, plan.Available, plan.S1, s2,
		plan.Level, s2, obs.ReasonStretchSlackRich)
	return sched.Run(j, plan.Level, s2)
}
