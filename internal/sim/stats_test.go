package sim

import (
	"math"
	"testing"

	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/sched"
	"github.com/eadvfs/eadvfs/internal/storage"
	"github.com/eadvfs/eadvfs/internal/task"
)

func TestPerTaskBreakdownSumsToAggregate(t *testing.T) {
	src := energy.NewSolarModel(5)
	cfg := &Config{
		Horizon:   3000,
		Tasks:     paperWorkload(5, 0.6, 5),
		Source:    src,
		Predictor: energy.NewEWMA(0.2),
		Store:     storage.NewIdeal(200),
		CPU:       cpu.XScaleScaled(10),
		Policy:    sched.LSA{},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerTask) != 5 {
		t.Fatalf("per-task rows = %d, want 5", len(res.PerTask))
	}
	var rel, fin, mis int
	prevID := -1
	for _, s := range res.PerTask {
		if s.TaskID <= prevID {
			t.Fatalf("per-task rows not sorted by ID: %d after %d", s.TaskID, prevID)
		}
		prevID = s.TaskID
		rel += s.Released
		fin += s.Finished
		mis += s.Missed
		if s.Missed < 0 || s.Missed > s.Released {
			t.Fatalf("task %d missed %d of %d released jobs", s.TaskID, s.Missed, s.Released)
		}
	}
	if rel != res.Miss.Released || fin != res.Miss.Finished || mis != res.Miss.Missed {
		t.Fatalf("per-task sums (%d,%d,%d) != aggregate %+v", rel, fin, mis, res.Miss)
	}
}

func TestPerTaskResponseTimes(t *testing.T) {
	// One task, ample energy, EDF: every job responds in exactly WCET.
	src := energy.NewConstant(50)
	cfg := &Config{
		Horizon:   100,
		Tasks:     []task.Task{{ID: 3, Period: 10, Deadline: 10, WCET: 2}},
		Source:    src,
		Predictor: energy.NewOracle(src),
		Store:     storage.New(1e6, 1e6),
		CPU:       cpu.XScale(),
		Policy:    sched.EDF{},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.PerTask[0]
	if s.TaskID != 3 || s.Released != 10 || s.Finished != 10 {
		t.Fatalf("stats = %+v", s)
	}
	if math.Abs(s.ResponseMean-2) > 1e-9 || math.Abs(s.ResponseMax-2) > 1e-9 {
		t.Fatalf("response mean/max = %v/%v, want 2/2", s.ResponseMean, s.ResponseMax)
	}
}

func TestPerTaskResponseUnderInterference(t *testing.T) {
	// Two tasks at the same release: the long-deadline task's first job
	// waits for the short one (EDF), so its response exceeds its WCET.
	src := energy.NewConstant(50)
	cfg := &Config{
		Horizon: 40,
		Tasks: []task.Task{
			{ID: 0, Period: 40, Deadline: 10, WCET: 2},
			{ID: 1, Period: 40, Deadline: 30, WCET: 3},
		},
		Source:    src,
		Predictor: energy.NewOracle(src),
		Store:     storage.New(1e6, 1e6),
		CPU:       cpu.XScale(),
		Policy:    sched.EDF{},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PerTask[0].ResponseMean-2) > 1e-9 {
		t.Fatalf("task 0 response %v, want 2", res.PerTask[0].ResponseMean)
	}
	if math.Abs(res.PerTask[1].ResponseMean-5) > 1e-9 {
		t.Fatalf("task 1 response %v, want 5 (2 blocked + 3 run)", res.PerTask[1].ResponseMean)
	}
}
