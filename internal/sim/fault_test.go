package sim

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/eadvfs/eadvfs/internal/core"
	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/fault"
	"github.com/eadvfs/eadvfs/internal/metrics"
	"github.com/eadvfs/eadvfs/internal/sched"
	"github.com/eadvfs/eadvfs/internal/storage"
	"github.com/eadvfs/eadvfs/internal/task"
)

// faultTestConfig is a periodic workload long enough for dense fault
// windows to strike many times, with the invariant checker armed.
func faultTestConfig() *Config {
	src := energy.NewSolarModel(7)
	return &Config{
		Horizon: 600,
		Tasks: []task.Task{
			{ID: 1, Period: 20, Deadline: 20, WCET: 3},
			{ID: 2, Period: 30, Deadline: 30, WCET: 4},
			{ID: 3, Period: 50, Deadline: 50, WCET: 6},
		},
		Source:          src,
		Predictor:       energy.NewEWMA(0.2),
		Store:           storage.New(300, 300),
		CPU:             cpu.XScaleScaled(10),
		Policy:          core.NewEADVFS(),
		CheckInvariants: true,
		MaxEvents:       1_000_000,
	}
}

// Every intensity must complete without panic and with clean invariants
// (the fault layer degrades the run, it does not break the physics). At
// intensity 1 each fault type's own degradation counters must move.
func TestEachFaultTypeDegradesGracefully(t *testing.T) {
	var hostile metrics.Degradation
	for _, x := range []float64{0.05, 0.25, 0.5, 0.75, 1} {
		cfg := faultTestConfig()
		cfg.Horizon = 3000 // several windows of the sparsest process (mean gap 250)
		cfg.Faults = fault.Spec{Seed: 3, Intensity: x}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("intensity %g: faulted run not clean: %v", x, err)
		}
		if res.Miss.Released == 0 {
			t.Fatalf("intensity %g: no jobs released", x)
		}
		hostile = res.Degradation
	}
	for _, tc := range []struct {
		name  string
		moved bool
	}{
		{"harvester-dropout", hostile.SourceFaultTime > 0},
		{"storage-fade", hostile.FadeEnergy > 0},
		{"leakage-spike", hostile.LeakSpikeTime > 0 && hostile.LeakSpikeEnergy > 0},
		{"dvfs-stuck", hostile.DVFSStuckTime > 0 && hostile.DVFSClamps > 0},
		{"predictor-blackout", hostile.BlackoutTime > 0 && hostile.StaleForecasts > 0},
		{"job-overrun", hostile.Overruns > 0 && hostile.OverrunWork > 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.moved {
				t.Fatalf("counters did not move at intensity 1: %+v", hostile)
			}
		})
	}
	t.Run("all-at-intensity-1", func(t *testing.T) {
		v := reflect.ValueOf(hostile)
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).IsZero() {
				t.Fatalf("%s did not move: %+v", v.Type().Field(i).Name, hostile)
			}
		}
	})
}

// A zero fault spec and a seeded intensity-0 spec must both be
// bit-identical to the fault-free run: the fault layer is inert until the
// intensity is positive.
func TestZeroFaultSpecBitIdentical(t *testing.T) {
	base, err := Run(faultTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []fault.Spec{{}, {Seed: 99}} {
		cfg := faultTestConfig()
		cfg.Faults = spec
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Miss != base.Miss {
			t.Fatalf("zero-spec run diverged: %+v vs %+v", res.Miss, base.Miss)
		}
		if res.ConservationErr != base.ConservationErr || res.Degradation.Any() {
			t.Fatalf("zero-spec run not inert: cons %v vs %v, deg %+v",
				res.ConservationErr, base.ConservationErr, res.Degradation)
		}
	}
}

// Same master seed → identical outcome, run after run: the whole fault
// schedule is a function of the seed, not of event ordering.
func TestFaultedRunReproducible(t *testing.T) {
	run := func() *Result {
		cfg := faultTestConfig()
		cfg.Faults = fault.Spec{Seed: 5, Intensity: 0.8}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Miss != b.Miss {
		t.Fatalf("miss stats diverged: %+v vs %+v", a.Miss, b.Miss)
	}
	if a.Degradation != b.Degradation {
		t.Fatalf("degradation diverged: %+v vs %+v", a.Degradation, b.Degradation)
	}
	if a.ConservationErr != b.ConservationErr {
		t.Fatalf("conservation diverged: %v vs %v", a.ConservationErr, b.ConservationErr)
	}
}

// corruptStore is a deliberately buggy reservoir: it siphons energy from
// the level without metering the loss, so its balance cannot close. The
// invariant checker must catch exactly this class of bug.
type corruptStore struct {
	cap, level    float64
	stored, drawn float64
}

func (c *corruptStore) Capacity() float64 { return c.cap }
func (c *corruptStore) Level() float64    { return c.level }

func (c *corruptStore) TimeToEmpty(ps, pc float64) float64 {
	net := pc - ps
	if net <= 0 || c.level <= 0 {
		if c.level <= 0 && net > 0 {
			return 0
		}
		return math.Inf(1)
	}
	return c.level / net
}

func (c *corruptStore) Flow(ps, pc, dt float64) (delivered, overflow float64) {
	c.level += (ps - pc) * dt
	c.stored += ps * dt
	c.drawn += pc * dt
	c.level -= 0.05 * dt // the bug: unmetered self-discharge
	if c.level > c.cap {
		overflow = c.level - c.cap
		c.level = c.cap
		c.stored -= overflow
	}
	if c.level < 0 {
		c.level = 0
	}
	return pc * dt, overflow
}

func (c *corruptStore) Draw(e float64) float64 {
	d := math.Min(e, c.level)
	c.level -= d
	c.drawn += d
	return d
}

func (c *corruptStore) Meters() storage.Meters {
	return storage.Meters{Stored: c.stored, Drawn: c.drawn}
}

func (c *corruptStore) ConservationError(initial float64) float64 {
	return initial + c.stored - c.drawn - c.level
}

// The checker is clean on a correct fault-free run and reports a
// structured conservation violation on the corrupted store, instead of
// panicking mid-run.
func TestInvariantChecker(t *testing.T) {
	if _, err := Run(faultTestConfig()); err != nil {
		t.Fatalf("clean run flagged: %v", err)
	}

	cfg := faultTestConfig()
	cfg.Store = &corruptStore{cap: 1e6, level: 300}
	res, err := Run(cfg)
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("corrupted store not caught: %v", err)
	}
	if res == nil {
		t.Fatal("result withheld alongside the invariant error")
	}
	found := false
	for _, v := range ie.Violations {
		if v.Kind == "conservation" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no conservation violation among %v", ie.Violations)
	}
	if ie.Error() == "" {
		t.Fatal("empty error text")
	}
}

// The event-budget watchdog converts a too-long run into a structured
// error instead of a hung worker.
func TestEventBudgetWatchdog(t *testing.T) {
	cfg := faultTestConfig()
	cfg.MaxEvents = 10
	res, err := Run(cfg)
	var be *EventBudgetError
	if !errors.As(err, &be) {
		t.Fatalf("got %v, want *EventBudgetError", err)
	}
	if res != nil {
		t.Fatal("aborted run still produced a result")
	}
	if be.Events < 10 || be.Horizon != 600 {
		t.Fatalf("unhelpful watchdog report: %+v", be)
	}
}

// The watchdog's Pending counts every queued event across the engine's
// streams: deadline checks, remaining arrivals, the next unit boundary,
// the pending segment end and the pending decision. The run is small
// enough to trace by hand. Releases are (0, τ1), (0, τ2), (4, τ1),
// (5, τ2), (8, τ1); EDF runs flat out, so τ1's first job (1 unit of work)
// completes at t=1. The first four events are the two arrivals at t=0
// (each queues a deadline check), the decision at t=0 (τ1 runs, segment
// end at t=1) and the unit boundary at t=1 (requests a decision).
func TestEventBudgetPending(t *testing.T) {
	cfg := &Config{
		Horizon: 10,
		Tasks: []task.Task{
			{ID: 1, Period: 4, Deadline: 4, WCET: 1},
			{ID: 2, Period: 5, Deadline: 5, WCET: 2},
		},
		Source:    energy.Constant{P: 1},
		Predictor: energy.NewEWMA(0.2),
		Store:     storage.NewIdeal(1000),
		CPU:       cpu.XScale(),
		Policy:    sched.EDF{},
		MaxEvents: 4,
	}
	_, err := Run(cfg)
	var be *EventBudgetError
	if !errors.As(err, &be) {
		t.Fatalf("got %v, want *EventBudgetError", err)
	}
	const (
		checks   = 2 // deadline checks at t=4 and t=5
		arrivals = 3 // releases at t=4, 5 and 8
		boundary = 1 // the unit boundary at t=2
		segment  = 1 // τ1's completion at t=1
		decide   = 1 // requested by the boundary at t=1
	)
	if want := checks + arrivals + boundary + segment + decide; be.Pending != want {
		t.Fatalf("Pending = %d, want %d (%+v)", be.Pending, want, be)
	}
	if be.Events != 4 || be.Time != 1 {
		t.Fatalf("watchdog fired after %d events at t=%g, want 4 at t=1", be.Events, be.Time)
	}
}

// FuzzFaultedRun drives faultTestConfig's workload under an arbitrary
// fault seed and intensity, store capacity and policy. An intensity
// outside [0, 1], or NaN, must come back as an error, never a panic; any
// other run must end without an invariant violation; and intensity 0
// must be bit-identical to the fault-free run.
func FuzzFaultedRun(f *testing.F) {
	for i, x := range []float64{0, 0.5, 1, math.NaN(), -0.1, 1.5} {
		f.Add(uint64(3+i), x, 300.0, uint8(i))
	}
	policies := []func() sched.Policy{
		func() sched.Policy { return core.NewEADVFS() },
		func() sched.Policy { return sched.EDF{} },
		func() sched.Policy { return sched.LSA{} },
		func() sched.Policy { return sched.GreedyStretch{} },
	}
	f.Fuzz(func(t *testing.T, seed uint64, x, capacity float64, policy uint8) {
		if !(capacity >= 0 && capacity <= 1e6) {
			t.Skip("capacity outside the fuzzing bound")
		}
		run := func(spec fault.Spec) (*Result, error) {
			cfg := faultTestConfig()
			cfg.Store = storage.New(capacity, capacity)
			cfg.Policy = policies[int(policy)%len(policies)]()
			cfg.Faults = spec
			return Run(cfg)
		}
		res, err := run(fault.Spec{Seed: seed, Intensity: x})
		if !(x >= 0 && x <= 1) {
			if err == nil {
				t.Fatalf("intensity %v accepted", x)
			}
			return
		}
		var ie *InvariantError
		if errors.As(err, &ie) {
			t.Fatalf("seed %d intensity %v: %v", seed, x, err)
		}
		if x != 0 {
			return
		}
		base, baseErr := run(fault.Spec{})
		if (err == nil) != (baseErr == nil) || !reflect.DeepEqual(res, base) {
			t.Fatalf("intensity 0 diverged from the fault-free run: %v vs %v", err, baseErr)
		}
	})
}
