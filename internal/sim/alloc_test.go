package sim

import (
	"testing"

	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/sched"
	"github.com/eadvfs/eadvfs/internal/storage"
	"github.com/eadvfs/eadvfs/internal/task"
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
// allocate. The authoritative regression gate is eabench -check against
// the checked-in baseline (allocs/op within 15%); this test is the
// in-tree tripwire with a deliberately generous fixed bound so it fails
// on a structural regression (tracing allocating when disabled), not on
// noise. Race builds skip the numeric assertion — the detector changes
// allocation behaviour — but still execute the path for race coverage.
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
