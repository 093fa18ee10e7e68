package sim

import (
	"math"
	"testing"

	"github.com/eadvfs/eadvfs/internal/task"
)

// TestStochasticOptIn pins the gate condition of the stochastic-execution
// subsystem: only an attached task.ExecSpec turns it on — a fractional
// uniform ratio (task.UniformExec) or any other distribution. ExecSeed
// alone, a degenerate ratio of exactly 1 or 0, or a plain WCET-exact
// workload must all leave Stochastic() false — the strictly-opt-in
// contract every pre-existing spec relies on.
func TestStochasticOptIn(t *testing.T) {
	base := func() *Config {
		return &Config{Tasks: []task.Task{{ID: 0, Period: 20, Deadline: 20, WCET: 4}}}
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want bool
	}{
		{"wcet-exact", func(c *Config) {}, false},
		{"exec seed alone", func(c *Config) { c.ExecSeed = 99 }, false},
		{"ratio exactly 1", func(c *Config) { c.Tasks[0].Exec = task.UniformExec(1) }, false},
		{"ratio 0", func(c *Config) { c.Tasks[0].Exec = task.UniformExec(0) }, false},
		{"fractional ratio", func(c *Config) { c.Tasks[0].Exec = task.UniformExec(0.5) }, true},
		{"task exec spec", func(c *Config) {
			c.Tasks[0].Exec = &task.ExecSpec{Dist: task.DistUniform, BCRatio: 0.5}
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(cfg)
			if got := cfg.Stochastic(); got != tc.want {
				t.Errorf("Stochastic() = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestExecSeedAloneIsInert: setting ExecSeed on a WCET-exact config (as
// the facade and experiment harness now do unconditionally) must change
// nothing — bit-identical results and not a single extra allocation in
// the steady state. This is the runtime half of the backward-compat
// satellite: the digest corpus proves old cache keys survive, this
// proves old runs do.
func TestExecSeedAloneIsInert(t *testing.T) {
	seeded := func() *Config {
		c := allocConfig()
		c.ExecSeed = 0xfeedface
		return c
	}

	plain, err := Run(allocConfig())
	if err != nil {
		t.Fatal(err)
	}
	withSeed, err := Run(seeded())
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string][2]float64{
		"CPUEnergy": {plain.CPUEnergy, withSeed.CPUEnergy},
		"BusyTime":  {plain.BusyTime, withSeed.BusyTime},
		"IdleTime":  {plain.IdleTime, withSeed.IdleTime},
	} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			t.Errorf("%s: %v != %v — ExecSeed perturbed a WCET-exact run", name, pair[0], pair[1])
		}
	}
	if plain.Miss != withSeed.Miss || plain.Slack != withSeed.Slack {
		t.Errorf("tallies differ: %+v vs %+v", plain.Miss, withSeed.Miss)
	}
	if withSeed.Slack.DrawnJobs != 0 {
		t.Errorf("WCET-exact run drew %d jobs", withSeed.Slack.DrawnJobs)
	}

	a := NewArena()
	for i := 0; i < 3; i++ { // warm the arena pools
		if _, err := a.Run(seeded()); err != nil {
			t.Fatal(err)
		}
	}
	overhead := testing.AllocsPerRun(100, func() { _ = seeded() })
	baseline := testing.AllocsPerRun(100, func() { _ = allocConfig() })
	totalSeeded := testing.AllocsPerRun(100, func() {
		if _, err := a.Run(seeded()); err != nil {
			t.Fatal(err)
		}
	})
	totalPlain := testing.AllocsPerRun(100, func() {
		if _, err := a.Run(allocConfig()); err != nil {
			t.Fatal(err)
		}
	})
	if raceEnabled {
		t.Skip("race detector changes allocation behaviour; numeric comparison not meaningful")
	}
	if got, want := totalSeeded-overhead, totalPlain-baseline; got > want {
		t.Errorf("ExecSeed on a WCET-exact config costs %.1f allocs/run vs %.1f without — the disabled stochastic path is no longer free", got, want)
	}
}
