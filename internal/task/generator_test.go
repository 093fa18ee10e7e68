package task

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/eadvfs/eadvfs/internal/rng"
)

func baseCfg() GeneratorConfig {
	return GeneratorConfig{
		NumTasks:         5,
		Periods:          PaperPeriods(),
		MeanHarvestPower: 3.99,
		PMax:             3.2,
		TargetU:          0.4,
	}
}

func TestPaperPeriods(t *testing.T) {
	p := PaperPeriods()
	if len(p) != 10 || p[0] != 10 || p[9] != 100 {
		t.Fatalf("paper periods = %v", p)
	}
	for i := 1; i < len(p); i++ {
		if p[i]-p[i-1] != 10 {
			t.Fatalf("period step wrong at %d", i)
		}
	}
}

func TestGenerateHitsTargetUtilization(t *testing.T) {
	cfg := baseCfg()
	for seed := uint64(0); seed < 50; seed++ {
		tasks, err := Generate(cfg, rng.New(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(tasks) != cfg.NumTasks {
			t.Fatalf("seed %d: %d tasks", seed, len(tasks))
		}
		u := SetUtilization(tasks)
		if math.Abs(u-cfg.TargetU) > 1e-9 {
			t.Fatalf("seed %d: utilization %v, want %v", seed, u, cfg.TargetU)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := baseCfg()
	a, _ := Generate(cfg, rng.New(7))
	b, _ := Generate(cfg, rng.New(7))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed task sets differ at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGenerateDeadlineEqualsPeriod(t *testing.T) {
	tasks, _ := Generate(baseCfg(), rng.New(3))
	for _, tk := range tasks {
		if tk.Deadline != tk.Period {
			t.Fatalf("task %d deadline %v != period %v", tk.ID, tk.Deadline, tk.Period)
		}
	}
}

func TestGeneratePeriodsFromMenu(t *testing.T) {
	cfg := baseCfg()
	menu := map[float64]bool{}
	for _, p := range cfg.Periods {
		menu[p] = true
	}
	for seed := uint64(0); seed < 30; seed++ {
		tasks, _ := Generate(cfg, rng.New(seed))
		for _, tk := range tasks {
			if !menu[tk.Period] {
				t.Fatalf("period %v not in menu", tk.Period)
			}
		}
	}
}

func TestGenerateAllValid(t *testing.T) {
	cfg := baseCfg()
	cfg.TargetU = 0.95
	for seed := uint64(0); seed < 100; seed++ {
		tasks, err := Generate(cfg, rng.New(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, tk := range tasks {
			if err := tk.Validate(); err != nil {
				t.Fatalf("seed %d: generated invalid task: %v", seed, err)
			}
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	bads := []GeneratorConfig{
		{},
		{NumTasks: 0, Periods: PaperPeriods(), MeanHarvestPower: 1, PMax: 1, TargetU: 0.5},
		{NumTasks: 3, Periods: nil, MeanHarvestPower: 1, PMax: 1, TargetU: 0.5},
		{NumTasks: 3, Periods: PaperPeriods(), MeanHarvestPower: 0, PMax: 1, TargetU: 0.5},
		{NumTasks: 3, Periods: PaperPeriods(), MeanHarvestPower: 1, PMax: 0, TargetU: 0.5},
		{NumTasks: 3, Periods: PaperPeriods(), MeanHarvestPower: 1, PMax: 1, TargetU: 0},
		{NumTasks: 3, Periods: PaperPeriods(), MeanHarvestPower: 1, PMax: 1, TargetU: 1.2},
		{NumTasks: 3, Periods: []float64{10, -1}, MeanHarvestPower: 1, PMax: 1, TargetU: 0.5},
		// Non-finite values fail validation instead of redrawing forever.
		{NumTasks: 3, Periods: PaperPeriods(), MeanHarvestPower: math.NaN(), PMax: 1, TargetU: 0.5},
		{NumTasks: 3, Periods: PaperPeriods(), MeanHarvestPower: math.Inf(1), PMax: 1, TargetU: 0.5},
		{NumTasks: 3, Periods: PaperPeriods(), MeanHarvestPower: 1, PMax: math.NaN(), TargetU: 0.5},
		{NumTasks: 3, Periods: PaperPeriods(), MeanHarvestPower: 1, PMax: math.Inf(1), TargetU: 0.5},
		{NumTasks: 3, Periods: PaperPeriods(), MeanHarvestPower: 1, PMax: 1, TargetU: math.NaN()},
		{NumTasks: 3, Periods: PaperPeriods(), MeanHarvestPower: 1, PMax: 1, TargetU: math.Inf(1)},
		// Finite but degenerate scales: the draws underflow or overflow,
		// no set is ever valid, and the redraw bound ends the search.
		{NumTasks: 3, Periods: PaperPeriods(), MeanHarvestPower: 5e-324, PMax: 1, TargetU: 0.5},
		{NumTasks: 3, Periods: PaperPeriods(), MeanHarvestPower: math.MaxFloat64, PMax: 1, TargetU: 0.5},
	}
	for i, cfg := range bads {
		if _, err := Generate(cfg, rng.New(1)); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestGenerateUtilizationProperty(t *testing.T) {
	f := func(seed uint64, uRaw, nRaw uint8) bool {
		cfg := baseCfg()
		cfg.TargetU = 0.05 + float64(uRaw)/255*0.9
		cfg.NumTasks = 1 + int(nRaw%20)
		tasks, err := Generate(cfg, rng.New(seed))
		if err != nil {
			return false
		}
		return math.Abs(SetUtilization(tasks)-cfg.TargetU) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseJobs(t *testing.T) {
	tasks := []Task{
		{ID: 0, Period: 10, Deadline: 10, WCET: 1},
		{ID: 1, Period: 25, Deadline: 25, WCET: 2, Offset: 5},
	}
	jobs := ReleaseJobs(tasks, 50)
	// Task 0: arrivals 0,10,20,30,40 (5 jobs). Task 1: 5,30 (2 jobs).
	if len(jobs) != 7 {
		t.Fatalf("released %d jobs, want 7", len(jobs))
	}
	// Arrival order with tie at 30 broken by task ID.
	wantArrivals := []float64{0, 5, 10, 20, 30, 30, 40}
	for i, j := range jobs {
		if j.Arrival != wantArrivals[i] {
			t.Fatalf("job %d arrival %v, want %v", i, j.Arrival, wantArrivals[i])
		}
	}
	if jobs[4].TaskID != 0 || jobs[5].TaskID != 1 {
		t.Fatal("tie at t=30 not broken by task ID")
	}
	// Sequence numbers per task.
	if jobs[6].Seq != 4 {
		t.Fatalf("task 0 last seq = %d, want 4", jobs[6].Seq)
	}
}

func TestReleaseJobsExclusiveHorizon(t *testing.T) {
	tasks := []Task{{ID: 0, Period: 10, Deadline: 10, WCET: 1}}
	jobs := ReleaseJobs(tasks, 30)
	if len(jobs) != 3 { // 0, 10, 20 — not 30
		t.Fatalf("released %d jobs, want 3 (horizon exclusive)", len(jobs))
	}
}

func TestReleaseJobsDeadlines(t *testing.T) {
	tasks := []Task{{ID: 0, Period: 10, Deadline: 8, WCET: 1}}
	jobs := ReleaseJobs(tasks, 25)
	for _, j := range jobs {
		if j.Abs != j.Arrival+8 {
			t.Fatalf("job abs deadline %v, want arrival+8", j.Abs)
		}
	}
}
