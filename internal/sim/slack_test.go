package sim

import (
	"math"
	"testing"

	"github.com/eadvfs/eadvfs/internal/core"
	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/sched"
	"github.com/eadvfs/eadvfs/internal/storage"
	"github.com/eadvfs/eadvfs/internal/task"
)

// withUniformExec attaches the uniform best-case ratio (task.UniformExec)
// to every task; ratio 0 leaves the tasks WCET-exact.
func withUniformExec(tasks []task.Task, ratio float64) []task.Task {
	u := task.UniformExec(ratio)
	for i := range tasks {
		tasks[i].Exec = u
	}
	return tasks
}

func slackCfg(ratio float64, policy sched.Policy) *Config {
	src := energy.NewSolarModel(21)
	return &Config{
		Horizon:   3000,
		Tasks:     withUniformExec(paperWorkload(21, 0.5, 5), ratio),
		Source:    src,
		Predictor: energy.NewEWMA(0.2),
		Store:     storage.NewIdeal(300),
		CPU:       cpu.XScaleScaled(10),
		Policy:    policy,
		ExecSeed:  3,
	}
}

func TestUniformExecReducesBusyTime(t *testing.T) {
	full, err := Run(slackCfg(0, sched.EDF{}))
	if err != nil {
		t.Fatal(err)
	}
	half, err := Run(slackCfg(0.5, sched.EDF{}))
	if err != nil {
		t.Fatal(err)
	}
	// Expected actual work is 75% of WCET; dropped jobs blur the exact
	// ratio, but busy time must fall distinctly.
	if half.BusyTime >= full.BusyTime*0.95 {
		t.Fatalf("busy time %v (bc ratio 0.5) vs %v (worst case): early completions not happening",
			half.BusyTime, full.BusyTime)
	}
}

func TestUniformExecNeverIncreasesMissesMuch(t *testing.T) {
	// Early completions free time and energy; across policies the miss
	// count with slack must not exceed the worst-case run's.
	for _, mk := range []func() sched.Policy{
		func() sched.Policy { return sched.LSA{} },
		func() sched.Policy { return core.NewEADVFS() },
	} {
		full, err := Run(slackCfg(0, mk()))
		if err != nil {
			t.Fatal(err)
		}
		half, err := Run(slackCfg(0.4, mk()))
		if err != nil {
			t.Fatal(err)
		}
		if half.Miss.Missed > full.Miss.Missed {
			t.Fatalf("%s: misses rose from %d to %d with shorter jobs",
				full.Policy, full.Miss.Missed, half.Miss.Missed)
		}
	}
}

func TestUniformExecDeterministicAcrossRuns(t *testing.T) {
	a, err := Run(slackCfg(0.6, core.NewEADVFS()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(slackCfg(0.6, core.NewEADVFS()))
	if err != nil {
		t.Fatal(err)
	}
	if a.Miss != b.Miss || a.BusyTime != b.BusyTime {
		t.Fatal("slack draws not deterministic")
	}
}

// TestExecSpecBCRatioValidation: a task's best-case ratio outside [0, 1]
// is a configuration error, reported by Validate and by Run.
func TestExecSpecBCRatioValidation(t *testing.T) {
	for _, ratio := range []float64{1.5, -0.1} {
		cfg := slackCfg(0, sched.EDF{})
		cfg.Tasks[0].Exec = &task.ExecSpec{Dist: task.DistUniform, BCRatio: ratio}
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate accepted exec BCRatio %v", ratio)
		}
		if _, err := Run(cfg); err == nil {
			t.Errorf("Run accepted exec BCRatio %v", ratio)
		}
	}
}

func TestSchedulerSeesBudgetNotActual(t *testing.T) {
	// A single job with actual < WCET under LSA: the lazy start time is
	// computed from the WCET budget, so execution starts at the same s2
	// as the worst-case run and simply finishes early.
	mk := func(ratio float64) *Config {
		src := energy.NewConstant(0.5)
		return &Config{
			Horizon:   25,
			Tasks:     withUniformExec([]task.Task{{ID: 1, Period: 1e9, Deadline: 16, WCET: 4}}, ratio),
			Source:    src,
			Predictor: energy.NewOracle(src),
			Store:     storage.New(1e6, 24),
			CPU:       cpu.TwoSpeed(8),
			Policy:    sched.LSA{},
			ExecSeed:  7,
		}
	}
	recFull := &recorder{}
	cfgFull := mk(0)
	cfgFull.Probe = recFull
	if _, err := Run(cfgFull); err != nil {
		t.Fatal(err)
	}
	recHalf := &recorder{}
	cfgHalf := mk(0.5)
	cfgHalf.Probe = recHalf
	if _, err := Run(cfgHalf); err != nil {
		t.Fatal(err)
	}
	sFull, _ := recFull.firstRun(1)
	sHalf, _ := recHalf.firstRun(1)
	if math.Abs(sFull-sHalf) > 1e-9 {
		t.Fatalf("start times differ (%v vs %v): scheduler leaked actual work", sFull, sHalf)
	}
	fFull, _ := recFull.completion(1)
	fHalf, _ := recHalf.completion(1)
	if fHalf >= fFull {
		t.Fatalf("shorter job did not finish earlier: %v vs %v", fHalf, fFull)
	}
}

func TestJobActualWorkAPI(t *testing.T) {
	j := task.NewJob(0, 0, 0, 10, 4)
	if j.ActualRemaining() != 4 {
		t.Fatalf("default actual = %v", j.ActualRemaining())
	}
	j.SetActualWork(2.5)
	if j.ActualRemaining() != 2.5 || j.Remaining() != 4 {
		t.Fatalf("actual/budget = %v/%v", j.ActualRemaining(), j.Remaining())
	}
	j.Progress(2.5)
	if !j.Done() {
		t.Fatal("job not done at actual work exhaustion")
	}
	if math.Abs(j.Remaining()-1.5) > 1e-12 {
		t.Fatalf("budget remaining = %v, want 1.5", j.Remaining())
	}
}

func TestSetActualWorkValidation(t *testing.T) {
	for i, f := range []func(){
		func() { task.NewJob(0, 0, 0, 10, 4).SetActualWork(5) },
		func() { task.NewJob(0, 0, 0, 10, 4).SetActualWork(-1) },
		func() {
			j := task.NewJob(0, 0, 0, 10, 4)
			j.Progress(1)
			j.SetActualWork(2)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
	// Zero actual work completes immediately.
	j := task.NewJob(0, 0, 0, 10, 4)
	j.SetActualWork(0)
	if !j.Done() {
		t.Fatal("zero actual work not done")
	}
}
