package sim

import (
	"testing"

	"github.com/eadvfs/eadvfs/internal/core"
	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/sched"
	"github.com/eadvfs/eadvfs/internal/storage"
	"github.com/eadvfs/eadvfs/internal/task"
	"github.com/eadvfs/eadvfs/internal/workload"
)

// allocConfig builds a fresh fig1-style config; stateful components
// (Store, Predictor, Policy) are consumed per run, so the measured
// closure must rebuild them each iteration and their construction cost
// is measured separately and subtracted.
func allocConfig() *Config {
	src := energy.NewConstant(0.5)
	return &Config{
		Horizon:   25,
		Tasks:     []task.Task{oneShot(1, 0, 16, 4), oneShot(2, 5, 16, 1.5)},
		Source:    src,
		Predictor: energy.NewOracle(src),
		Store:     storage.New(1e6, 24),
		CPU:       cpu.TwoSpeed(8),
		Policy:    sched.LSA{},
	}
}

// With tracing disabled (no probe at all), the arena's steady-state run
// must stay allocation-lean: the span plumbing added to Arena.Run is two
// type assertions and nil *ActiveSpan method calls, none of which may
// allocate. The authoritative regression gate is internal/bench's
// TestBaseline against the checked-in baseline (allocs/op within
// base×1.15+2); this test is the engine-level tripwire with a
// deliberately generous fixed bound so it fails on a structural
// regression (tracing allocating when disabled), not on noise. Race
// builds skip the numeric assertion — the detector changes allocation
// behaviour — but still execute the path for race coverage.
func TestArenaRunDisabledTracingAllocs(t *testing.T) {
	a := NewArena()
	for i := 0; i < 3; i++ { // warm the arena pools
		if _, err := a.Run(allocConfig()); err != nil {
			t.Fatal(err)
		}
	}
	overhead := testing.AllocsPerRun(100, func() {
		_ = allocConfig()
	})
	total := testing.AllocsPerRun(100, func() {
		if _, err := a.Run(allocConfig()); err != nil {
			t.Fatal(err)
		}
	})
	engine := total - overhead
	t.Logf("steady-state allocs/run: %.1f engine (%.1f total - %.1f config)", engine, total, overhead)
	if raceEnabled {
		t.Skip("race detector changes allocation behaviour; numeric bound not meaningful")
	}
	// Measured ~12 at introduction (identical to pre-tracing); 2x
	// headroom before this trips.
	const bound = 24
	if engine > bound {
		t.Fatalf("nil-probe steady-state run allocates %.1f times (bound %d): disabled tracing is no longer allocation-free", engine, bound)
	}
}

// A probe that is not a SpanSink must not trigger any tracing work: the
// engine's span extraction is a type assertion that fails, and the run
// must behave exactly as with tracing compiled out. This pins the gate
// condition — tracing engages on capability (SpanSink), not on the mere
// presence of a probe.
func TestArenaRunPlainProbeNoSpans(t *testing.T) {
	var rec countingProbe
	cfg := allocConfig()
	cfg.Probe = &rec
	if _, err := NewArena().Run(cfg); err != nil {
		t.Fatal(err)
	}
	if rec.events == 0 {
		t.Fatal("plain probe saw no events; probe plumbing broken")
	}
}

// countingProbe implements obs.Probe but NOT obs.SpanSink.
type countingProbe struct {
	events    int
	decisions int
}

func (c *countingProbe) OnEvent(obs.Event)             { c.events++ }
func (c *countingProbe) OnDecision(obs.DecisionRecord) { c.decisions++ }

// A run whose task set differs from the previous run's allocates no more
// than a run repeating the previous set: the release schedule is re-merged
// into the arena's buffers either way, so switching sets costs no job
// allocations (a cached schedule would be rebuilt, one job at a time, on
// every switch).
func TestArenaTaskSetSwitchAllocs(t *testing.T) {
	sets := [2][]task.Task{paperWorkload(3, 0.6, 5), paperWorkload(4, 0.8, 5)}
	cfg := func(i int) *Config { return rotationConfig(sets[i%2], 1, nil) }
	a := NewArena()
	for i := 0; i < 4; i++ { // warm the arena on both sets
		if _, err := a.Run(cfg(i)); err != nil {
			t.Fatal(err)
		}
	}
	run := func(i int) {
		if _, err := a.Run(cfg(i)); err != nil {
			t.Fatal(err)
		}
	}
	var repeated float64
	for s := 0; s < 2; s++ {
		repeated = max(repeated, testing.AllocsPerRun(20, func() { run(s) }))
	}
	i := 0
	switched := testing.AllocsPerRun(20, func() { i++; run(i) })
	t.Logf("allocs/run: %.1f switching task sets, %.1f repeating one", switched, repeated)
	if raceEnabled {
		t.Skip("race detector changes allocation behaviour; numeric bound not meaningful")
	}
	if switched > repeated {
		t.Fatalf("a run after a task-set switch allocates %.1f times, a repeated run %.1f", switched, repeated)
	}
}

// A stochastic run's steady-state allocations do not grow with its job
// count: every task draws its actual work (task.ExecSpec), a reclaiming
// policy decides and the processor sleeps between jobs, and the per-job
// draws reseed one engine-owned generator in place. The source is shared
// and realized to the longer horizon before measuring, so only the
// engine's own allocations can depend on the horizon. Race builds skip
// the numeric bound.
func TestStochasticRunAllocsFlatInJobs(t *testing.T) {
	src := energy.NewSolarModel(21)
	proc, err := cpu.XScaleScaled(10).WithSleepPreset("default")
	if err != nil {
		t.Fatal(err)
	}
	tasks := withUniformExec(paperWorkload(21, 0.5, 5), 0.25)
	a := NewArena()
	var res *Result
	run := func(horizon float64) {
		var err error
		res, err = a.Run(&Config{
			Horizon:   horizon,
			Tasks:     tasks,
			Source:    src,
			Predictor: energy.NewEWMA(0.2),
			Store:     storage.NewIdeal(1000),
			CPU:       proc,
			Policy:    workload.NewReclaimer("ea-dvfs-reclaim", core.NewEADVFS(), 0.5, 0.1),
			ExecSeed:  3,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	run(20000) // realize the source and size the arena
	long := testing.AllocsPerRun(5, func() { run(20000) })
	if res.Slack.DrawnJobs == 0 || res.Slack.EarlyCompletions == 0 || res.Wakeups == 0 {
		t.Fatalf("run drew %d jobs, %d early completions, %d wakeups: not the stochastic DPM path",
			res.Slack.DrawnJobs, res.Slack.EarlyCompletions, res.Wakeups)
	}
	longJobs := res.Slack.DrawnJobs
	short := testing.AllocsPerRun(5, func() { run(2000) })
	t.Logf("allocs/run: %.1f at horizon 2000 (%d drawn jobs), %.1f at horizon 20000 (%d drawn jobs)",
		short, res.Slack.DrawnJobs, long, longJobs)
	if raceEnabled {
		t.Skip("race detector changes allocation behaviour; numeric bound not meaningful")
	}
	if long > short+2 {
		t.Fatalf("a run of %d jobs allocates %.1f times, one of %d jobs %.1f: allocations grow with the job count",
			longJobs, long, res.Slack.DrawnJobs, short)
	}
}
