package trace

import (
	"math"
	"strings"
	"testing"

	"github.com/eadvfs/eadvfs/internal/core"
	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/sim"
	"github.com/eadvfs/eadvfs/internal/storage"
	"github.com/eadvfs/eadvfs/internal/task"
)

func TestActivityBasics(t *testing.T) {
	rec, res := runTraced(t, core.NewEADVFS())
	acts := rec.Activity()
	if len(acts) != 2 {
		t.Fatalf("activity rows = %d", len(acts))
	}
	totalBusy := 0.0
	for _, a := range acts {
		totalBusy += a.BusyTime
		if a.Completions == 0 {
			t.Fatalf("task %d has no completions (EA-DVFS meets both in Fig 1)", a.TaskID)
		}
		if a.ResponseMin > a.ResponseMax {
			t.Fatalf("task %d response ordering broken", a.TaskID)
		}
		if a.Jitter != a.ResponseMax-a.ResponseMin {
			t.Fatalf("task %d jitter arithmetic", a.TaskID)
		}
		if a.Fragments < 1 {
			t.Fatalf("task %d fragments %v < 1", a.TaskID, a.Fragments)
		}
	}
	if math.Abs(totalBusy-res.BusyTime) > 1e-6 {
		t.Fatalf("activity busy %v != result %v", totalBusy, res.BusyTime)
	}
}

// In the Fig-1 EA-DVFS schedule τ1 runs [4,12) at the low level: its
// response is 12, uninterrupted (1 fragment).
func TestActivityFig1Numbers(t *testing.T) {
	rec, _ := runTraced(t, core.NewEADVFS())
	acts := rec.Activity()
	var tau1 TaskActivity
	for _, a := range acts {
		if a.TaskID == 1 {
			tau1 = a
		}
	}
	if math.Abs(tau1.ResponseMean-12) > 1e-6 {
		t.Fatalf("τ1 response = %v, want 12", tau1.ResponseMean)
	}
	if math.Abs(tau1.BusyTime-8) > 1e-6 {
		t.Fatalf("τ1 busy = %v, want 8 (half speed)", tau1.BusyTime)
	}
	if tau1.Fragments != 1 {
		t.Fatalf("τ1 fragments = %v, want 1", tau1.Fragments)
	}
	if lt := tau1.LevelTime[0]; math.Abs(lt-8) > 1e-6 {
		t.Fatalf("τ1 low-level residency = %v, want 8", lt)
	}
}

// A preempted job shows up with more than one fragment.
func TestActivityFragmentsUnderPreemption(t *testing.T) {
	rec := NewRecorder()
	src := energy.NewConstant(0)
	cfg := &sim.Config{
		Horizon: 30,
		Tasks: []task.Task{
			{ID: 1, Period: 1e9, Deadline: 20, WCET: 6, Offset: 0},
			{ID: 2, Period: 1e9, Deadline: 5, WCET: 1, Offset: 2},
		},
		Source:    src,
		Predictor: energy.NewOracle(src),
		Store:     storage.New(1e6, 1e5),
		CPU:       cpu.XScale(),
		Policy:    nil,
		Probe:     rec,
	}
	cfg.Policy = edfPolicy()
	if _, err := sim.Run(cfg); err != nil {
		t.Fatal(err)
	}
	for _, a := range rec.Activity() {
		if a.TaskID == 1 && a.Fragments < 2 {
			t.Fatalf("preempted τ1 fragments = %v, want >= 2", a.Fragments)
		}
	}
}

func TestActivityTableRenders(t *testing.T) {
	rec, _ := runTraced(t, core.NewEADVFS())
	out := rec.ActivityTable()
	if !strings.Contains(out, "resp-mean") || !strings.Contains(out, "jitter") {
		t.Fatalf("table header missing:\n%s", out)
	}
	if strings.Count(out, "\n") != 3 {
		t.Fatalf("table rows wrong:\n%s", out)
	}
	if NewRecorder().ActivityTable() == "" {
		t.Fatal("empty recorder table empty")
	}
}
