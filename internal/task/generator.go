package task

import (
	"fmt"
	"math"
	"sort"

	"github.com/eadvfs/eadvfs/internal/rng"
)

// GeneratorConfig parameterizes the paper's random task-set generator
// (§5.1): periods drawn uniformly from Periods; per-task worst-case energy
// drawn from U[0, MeanHarvestPower·period]; WCET = energy / PMax; then all
// WCETs scaled by a common ratio so the set's utilization is exactly
// TargetU.
type GeneratorConfig struct {
	NumTasks         int
	Periods          []float64 // paper: {10, 20, ..., 100}
	MeanHarvestPower float64   // P̄s of the energy source
	PMax             float64   // processor max power
	TargetU          float64   // requested utilization in (0, 1]
}

// PaperPeriods returns the paper's period menu {10, 20, …, 100}.
func PaperPeriods() []float64 {
	p := make([]float64, 10)
	for i := range p {
		p[i] = float64(10 * (i + 1))
	}
	return p
}

// Validate checks the configuration.
func (c GeneratorConfig) Validate() error {
	switch {
	case c.NumTasks <= 0:
		return fmt.Errorf("task: NumTasks %d <= 0", c.NumTasks)
	case len(c.Periods) == 0:
		return fmt.Errorf("task: empty period menu")
	case !(c.MeanHarvestPower > 0) || math.IsInf(c.MeanHarvestPower, 0):
		return fmt.Errorf("task: MeanHarvestPower %v not positive and finite", c.MeanHarvestPower)
	case !(c.PMax > 0) || math.IsInf(c.PMax, 0):
		return fmt.Errorf("task: PMax %v not positive and finite", c.PMax)
	case !(c.TargetU > 0 && c.TargetU <= 1):
		return fmt.Errorf("task: TargetU %v outside (0, 1] — \"The utilization U cannot be larger than 1\" (§5.1)", c.TargetU)
	}
	for _, p := range c.Periods {
		if p <= 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("task: invalid period %v in menu", p)
		}
	}
	return nil
}

// maxDraws bounds Generate's redraws. A sane configuration needs a
// handful; one whose utilization underflows or overflows the float range
// never yields a valid set and fails instead of spinning.
const maxDraws = 10000

// Generate draws one task set per the paper's recipe. The same
// (config, rng state) always yields the same set.
func Generate(cfg GeneratorConfig, r *rng.RNG) ([]Task, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
redraw:
	for range maxDraws {
		tasks := make([]Task, cfg.NumTasks)
		rawU := 0.0
		for i := range tasks {
			period := rng.Choice(r, cfg.Periods)
			// "The energy consumption e for the task under the worst case
			// is generated in terms of the uniform distribution [0, P̄s·p].
			// Then its worst case execution time is equal to e/Pmax." (§5.1)
			e := r.Uniform(0, cfg.MeanHarvestPower*period)
			wcet := e / cfg.PMax
			tasks[i] = Task{ID: i, Period: period, Deadline: period, WCET: wcet}
			rawU += wcet / period
		}
		// "In order to get the specific utilization, we scale the worst
		// case execution time of each task in a task set in the same
		// ratio." (§5.1)
		if rawU == 0 {
			// All energies drew ~0; redraw deterministically from the
			// stream.
			continue
		}
		scale := cfg.TargetU / rawU
		for i := range tasks {
			tasks[i].WCET *= scale
		}
		for _, t := range tasks {
			if t.Validate() != nil {
				// WCET > period can happen when the scale pushes a single
				// task's utilization above 1; redraw the whole set, as the
				// authors' generator implicitly discards such sets (they
				// are unschedulable regardless of energy).
				continue redraw
			}
		}
		return tasks, nil
	}
	return nil, fmt.Errorf("task: no valid task set in %d draws (MeanHarvestPower %v, PMax %v)", maxDraws, cfg.MeanHarvestPower, cfg.PMax)
}

// SetUtilization returns Σ wcet/period for the set (eq. 14).
func SetUtilization(tasks []Task) float64 {
	u := 0.0
	for _, t := range tasks {
		u += t.Utilization()
	}
	return u
}

// ReleaseJobs expands a task set into all job instances released strictly
// before horizon, in arrival order (stable across runs). The number of jobs
// is Σ ceil((horizon − offset)/period).
func ReleaseJobs(tasks []Task, horizon float64) []*Job {
	var jobs []*Job
	for _, t := range tasks {
		seq := 0
		for a := t.Offset; a < horizon; a += t.Period {
			j := NewJob(t.ID, seq, a, t.Deadline, t.WCET)
			j.Exec = t.Exec
			jobs = append(jobs, j)
			seq++
		}
	}
	sortJobsByArrival(jobs)
	return jobs
}

// sortJobsByArrival orders by (arrival, task ID, seq) — a strict total
// order, so the release schedule is deterministic.
func sortJobsByArrival(jobs []*Job) {
	sort.Slice(jobs, func(i, j int) bool {
		a, b := jobs[i], jobs[j]
		if a.Arrival != b.Arrival {
			return a.Arrival < b.Arrival
		}
		if a.TaskID != b.TaskID {
			return a.TaskID < b.TaskID
		}
		return a.Seq < b.Seq
	})
}
