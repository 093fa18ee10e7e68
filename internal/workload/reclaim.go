package workload

import (
	"slices"

	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/sched"
	"github.com/eadvfs/eadvfs/internal/task"
)

// Reclaimer decorates a policy with online slack reclamation in the
// spirit of Leung/Tsui dynamic reclaiming: it observes, per task, how
// much of the declared WCET budget completed jobs actually spent, keeps
// an exponentially weighted estimate of that ratio, and — when the
// estimate says the task habitually finishes early — speculatively runs
// the job at the minimum level feasible for the *estimated* work instead
// of the full budget.
//
// The speculation is deadline-safe by construction: the decorator never
// stretches past the latest instant from which the job's FULL remaining
// budget still fits at maximum speed,
//
//	guard = d − w_remaining / S(f_max),
//
// and always schedules a re-decision at that instant. If the optimism
// was misplaced (the job really needs its whole budget), the guard fires
// with the full budget still feasible flat-out, and the inner decision
// passes through untouched from then on. The worst case is therefore
// exactly the inner policy's worst case; the win is the energy saved on
// the (estimated·WCET) prefix run at a lower point.
//
// Compatibility property the tests pin down: the estimate starts at 1
// and only drops after an observed early completion, so on WCET-exact
// runs every Decide passes the inner decision through unchanged — the
// decorated policy is bit-identical to the inner one whenever no job
// ever finishes early.
//
// A Reclaimer is stateful per run (the engine consumes policies per run)
// and not safe for concurrent use.
type Reclaimer struct {
	name  string
	inner sched.Policy

	// Alpha is the EWMA smoothing weight of a fresh observation in (0, 1]:
	// est ← (1−Alpha)·est + Alpha·observed.
	Alpha float64
	// MinRatio floors the speculative ratio, bounding how aggressively a
	// run of lucky completions can stretch the next job.
	MinRatio float64

	est  []taskEstimate // per-task EWMA of observed actual/WCET, sorted by task ID; absent = 1
	prev *task.Job      // head job of the previous decision, observed on completion
}

// taskEstimate is one task's EWMA of observed actual/WCET.
type taskEstimate struct {
	taskID int
	ratio  float64
}

// NewReclaimer wraps inner as the named reclaiming policy. Alpha is
// clamped into (0, 1] and minRatio into [0, 1].
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
		Alpha:    alpha,
		MinRatio: minRatio,
	}
}

// Name implements sched.Policy.
func (p *Reclaimer) Name() string { return p.name }

// observe folds the previous head job's completion into the per-task
// estimate. Completions are the only way a head job becomes Done before
// the next decision, and every completion triggers a decision, so the
// observation lands exactly once, at the completion instant.
func (p *Reclaimer) observe() {
	j := p.prev
	p.prev = nil
	if j == nil || !j.Done() || j.WCET <= 0 {
		return
	}
	observed := (j.WCET - j.Remaining()) / j.WCET
	i, ok := p.find(j.TaskID)
	if !ok {
		p.est = slices.Insert(p.est, i, taskEstimate{taskID: j.TaskID, ratio: 1})
	}
	e := &p.est[i]
	e.ratio = float64((1-p.Alpha)*e.ratio) + float64(p.Alpha*observed)
}

// find returns the index of a task's estimate and whether it exists; when
// it does not, the index is where it belongs in task-ID order.
func (p *Reclaimer) find(taskID int) (int, bool) {
	lo, hi := 0, len(p.est)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if p.est[m].taskID < taskID {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(p.est) && p.est[lo].taskID == taskID
}

// ratioFor returns the floored speculative ratio for a task.
func (p *Reclaimer) ratioFor(taskID int) float64 {
	i, ok := p.find(taskID)
	if !ok {
		return 1
	}
	r := p.est[i].ratio
	if r < p.MinRatio {
		r = p.MinRatio
	}
	return r
}

// Decide implements sched.Policy.
func (p *Reclaimer) Decide(ctx *sched.Context) sched.Decision {
	p.observe()
	d := p.inner.Decide(ctx)
	p.prev = d.Job
	if d.Job == nil {
		return d
	}
	j := d.Job
	ratio := p.ratioFor(j.TaskID)
	if ratio >= 1 {
		return d
	}

	// Latest instant from which the full remaining budget still fits at
	// maximum speed. At or past it, speculation is off the table: the
	// inner decision (full speed there by feasibility) passes through.
	guard := j.Abs - j.Remaining()/ctx.CPU.Speed(ctx.CPU.MaxLevel())
	if sched.Reached(ctx.Now, guard) {
		if ctx.Auditing() {
			ctx.AuditJob(p.name, j, ctx.AvailableEnergy(j.Abs), guard, guard,
				d.Level, d.Until, obs.ReasonFullSpeedReclaimGuard)
		}
		return d
	}

	// Minimum level feasible for the *estimated* work in the real window.
	level, feasible := ctx.CPU.MinLevelFor(j.Remaining()*ratio, j.Abs-ctx.Now)
	if !feasible || level >= d.Level {
		return d
	}
	until := min(d.Until, guard)
	if ctx.Auditing() {
		ctx.AuditJob(p.name, j, ctx.AvailableEnergy(j.Abs), guard, guard,
			level, until, obs.ReasonStretchReclaimed)
	}
	return sched.Run(j, level, until)
}
