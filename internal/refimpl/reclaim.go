package refimpl

import (
	"math"

	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/sched"
	"github.com/eadvfs/eadvfs/internal/task"
)

// Reclaimer is the reference transcription of the slack-reclaiming
// decorator (internal/workload.Reclaimer), written out naively: the
// per-task estimate table is a plain map updated with the textbook EWMA,
// the minimum-level search is the inline scan the other reference
// policies use, and the guard instant is recomputed from first
// principles at every call. It reports the same Name() as the optimized
// decorator because the policy name rides in the Result the differential
// harness compares.
type Reclaimer struct {
	name  string
	inner sched.Policy

	alpha    float64
	minRatio float64

	est  map[int]float64
	prev *task.Job
}

// NewReclaimer wraps a reference inner policy as the named reclaiming
// policy, with the same parameter clamping as the optimized decorator.
func NewReclaimer(name string, inner sched.Policy, alpha, minRatio float64) *Reclaimer {
	if !(alpha > 0) || alpha > 1 {
		alpha = 0.5
	}
	if !(minRatio >= 0) || minRatio > 1 {
		minRatio = 0.1
	}
	return &Reclaimer{
		name:     name,
		inner:    inner,
		alpha:    alpha,
		minRatio: minRatio,
		est:      make(map[int]float64),
	}
}

// Name implements sched.Policy.
func (p *Reclaimer) Name() string { return p.name }

// Decide implements sched.Policy.
func (p *Reclaimer) Decide(ctx *sched.Context) sched.Decision {
	// Observe the previous head job's completion: fold the spent fraction
	// of its budget into the task's estimate, exactly once.
	if j := p.prev; j != nil && j.Done() && j.WCET > 0 {
		observed := (j.WCET - j.Remaining()) / j.WCET
		e, ok := p.est[j.TaskID]
		if !ok {
			e = 1
		}
		p.est[j.TaskID] = float64((1-p.alpha)*e) + float64(p.alpha*observed)
	}
	p.prev = nil

	d := p.inner.Decide(ctx)
	p.prev = d.Job
	if d.Job == nil {
		return d
	}
	j := d.Job

	// Floored speculative ratio; 1 (no history) means pass through.
	ratio, ok := p.est[j.TaskID]
	if !ok {
		ratio = 1
	}
	if ratio < p.minRatio {
		ratio = p.minRatio
	}
	if ratio >= 1 {
		return d
	}

	// Latest instant from which the full remaining budget still fits at
	// maximum speed; at or past it the inner decision stands.
	guard := j.Abs - j.Remaining()/ctx.CPU.Speed(ctx.CPU.MaxLevel())
	if sched.Reached(ctx.Now, guard) {
		if ctx.Auditing() {
			ctx.AuditJob(p.name, j, availableEnergy(ctx, j.Abs), guard, guard,
				d.Level, d.Until, obs.ReasonFullSpeedReclaimGuard)
		}
		return d
	}

	// Inline minimum-level scan for the *estimated* work (cf. EADVFS
	// above): the lowest point n with w·ratio/S_n <= d − now.
	window := j.Abs - ctx.Now
	work := j.Remaining() * ratio
	level, feasible := ctx.CPU.MaxLevel(), false
	switch {
	case work == 0:
		level, feasible = 0, true
	case window <= 0:
		// nothing: even f_max cannot help
	default:
		for n := 0; n < ctx.CPU.Levels(); n++ {
			if work/ctx.CPU.Speed(n) <= window {
				level, feasible = n, true
				break
			}
		}
	}
	if !feasible || level >= d.Level {
		return d
	}
	until := math.Min(d.Until, guard)
	if ctx.Auditing() {
		ctx.AuditJob(p.name, j, availableEnergy(ctx, j.Abs), guard, guard,
			level, until, obs.ReasonStretchReclaimed)
	}
	return sched.Run(j, level, until)
}
