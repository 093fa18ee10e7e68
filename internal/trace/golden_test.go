package trace

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/eadvfs/eadvfs/internal/runspec"
	"github.com/eadvfs/eadvfs/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current recorder output")

// paperScenario compiles the paper's Figure 1 or Figure 3 run document,
// the one cmd/eatrace runs, under the named policy.
func paperScenario(t *testing.T, name, policy string) *sim.Config {
	t.Helper()
	doc, err := runspec.Paper(name)
	if err != nil {
		t.Fatal(err)
	}
	doc.Policy = policy
	cfg, err := doc.Compile(false)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestGolden pins the recorder's three renderings of the paper's worked
// examples byte for byte: the Gantt chart at eatrace's default width, the
// segment CSV and the activity table.
func TestGolden(t *testing.T) {
	for _, scenario := range []string{"fig1", "fig3"} {
		for _, policy := range []string{"lsa", "ea-dvfs"} {
			name := scenario + "-" + policy
			t.Run(name, func(t *testing.T) {
				rec := NewRecorder()
				cfg := paperScenario(t, scenario, policy)
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
