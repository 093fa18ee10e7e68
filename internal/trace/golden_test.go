package trace

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/eadvfs/eadvfs/internal/core"
	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/sched"
	"github.com/eadvfs/eadvfs/internal/sim"
	"github.com/eadvfs/eadvfs/internal/storage"
	"github.com/eadvfs/eadvfs/internal/task"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current recorder output")

// paperScenario builds the paper's Figure 1 or Figure 3 configuration,
// exactly as cmd/eatrace does.
func paperScenario(name string) *sim.Config {
	switch name {
	case "fig1":
		src := energy.NewConstant(0.5)
		return &sim.Config{
			Horizon: 25,
			Tasks: []task.Task{
				{ID: 1, Period: 1e9, Deadline: 16, WCET: 4, Offset: 0},
				{ID: 2, Period: 1e9, Deadline: 16, WCET: 1.5, Offset: 5},
			},
			Source:    src,
			Predictor: energy.NewOracle(src),
			Store:     storage.New(1e6, 24),
			CPU:       cpu.TwoSpeed(8),
		}
	case "fig3":
		src := energy.NewConstant(0)
		return &sim.Config{
			Horizon: 20,
			Tasks: []task.Task{
				{ID: 1, Period: 1e9, Deadline: 16, WCET: 4, Offset: 0},
				{ID: 2, Period: 1e9, Deadline: 12, WCET: 1.5, Offset: 5},
			},
			Source:    src,
			Predictor: energy.NewOracle(src),
			Store:     storage.New(1e6, 32),
			CPU:       cpu.Fig3(),
		}
	}
	panic("unknown scenario " + name)
}

// TestGolden pins the recorder's three renderings of the paper's worked
// examples byte for byte: the Gantt chart at eatrace's default width, the
// segment CSV and the activity table.
func TestGolden(t *testing.T) {
	policies := map[string]func() sched.Policy{
		"lsa":     func() sched.Policy { return sched.LSA{} },
		"ea-dvfs": func() sched.Policy { return core.NewEADVFS() },
	}
	for _, scenario := range []string{"fig1", "fig3"} {
		for _, policy := range []string{"lsa", "ea-dvfs"} {
			name := scenario + "-" + policy
			t.Run(name, func(t *testing.T) {
				rec := NewRecorder()
				cfg := paperScenario(scenario)
				cfg.Policy = policies[policy]()
				cfg.Probe = rec
				if _, err := sim.Run(cfg); err != nil {
					t.Fatal(err)
				}
				got := rec.Gantt(cfg.Horizon, 78) + "\n" + rec.CSV() + "\n" + rec.ActivityTable()
				path := filepath.Join("testdata", name+".golden")
				if *update {
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if got != string(want) {
					t.Fatalf("%s drifted from %s:\n--- got\n%s--- want\n%s", name, path, got, want)
				}
			})
		}
	}
}
