package registry

import (
	"math"
	"testing"

	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/sched"
	"github.com/eadvfs/eadvfs/internal/task"
)

// TestPolicyEmptyQueueContract checks the sched.Policy contract the
// engine's quiet unit boundaries rely on, for the optimized and the
// reference build of every registered policy: on an empty ready queue
// Decide answers Idle(+Inf), and asking again changes no policy state —
// the next decision on a one-job queue equals a fresh instance's.
func TestPolicyEmptyQueueContract(t *testing.T) {
	want := []string{"ea-dvfs", "ea-dvfs-dynamic", "lsa", "edf", "static-dvfs",
		"greedy-stretch", "ea-dvfs-reclaim", "lsa-reclaim"}
	if got := PolicyNames(); !equalPrefix(got, want) {
		t.Fatalf("PolicyNames() = %v, want prefix %v", got, want)
	}
	src := energy.NewConstant(2)
	ctx := func(now float64, q *task.ReadyQueue) *sched.Context {
		return &sched.Context{
			Now: now, Queue: q, Stored: 40, Capacity: 100,
			CPU: cpu.XScale(), Predictor: energy.NewOracle(src),
		}
	}
	// oneJob decides over a queue holding a fresh copy of the same job.
	oneJob := func(p sched.Policy) (sched.Decision, *task.Job) {
		j := task.NewJob(1, 0, 3, 20, 4)
		q := task.NewReadyQueue()
		q.Push(j)
		return p.Decide(ctx(3, q)), j
	}
	idle := sched.Idle(math.Inf(1))
	for _, name := range PolicyNames() {
		def, err := Policy(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, side := range []struct {
			label   string
			factory func(Params) (func() sched.Policy, error)
		}{{"new", def.Factory}, {"ref", def.RefFactory}} {
			newPolicy, err := side.factory(nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, side.label, err)
			}
			p := newPolicy()
			for _, now := range []float64{2, 3} {
				if d := p.Decide(ctx(now, task.NewReadyQueue())); d != idle {
					t.Errorf("%s/%s: empty-queue Decide at t=%g = %+v, want Idle(+Inf)", name, side.label, now, d)
				}
			}
			got, gotJob := oneJob(p)
			fresh, freshJob := oneJob(newPolicy())
			if (got.Job == gotJob) != (fresh.Job == freshJob) || got.Level != fresh.Level ||
				math.Float64bits(got.Until) != math.Float64bits(fresh.Until) ||
				*gotJob != *freshJob {
				t.Errorf("%s/%s: one-job decision after two empty-queue calls = %+v, fresh instance's = %+v",
					name, side.label, got, fresh)
			}
		}
	}
}
