package experiment

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/sweeps.golden.json from the current build")

// TestSweepsGolden pins the JSON results of the studies beyond the paper
// — the six sensitivity sweeps, the fault-intensity sweep with its
// Summary, the overhead counters and the convergence estimates — at a
// few replications of the default spec. encoding/json writes the
// shortest representation that round-trips a float64, so the golden
// pins every value bit for bit; eaexp rounds these tables to four digits
// and results/ holds only the paper's figures and Table 1.
func TestSweepsGolden(t *testing.T) {
	s := DefaultSpec()
	s.Replications = 4
	policies := []string{"lsa", "ea-dvfs"}
	got := map[string]any{}
	put := func(name string, v any, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = v
	}

	res, err := LevelCountSweep(s, []float64{1, 2, 3, 5, 8, 12}, policies)
	put("sens-levels", res, err)
	res, err = PMaxSweep(s, []float64{4, 6, 8, 10, 12, 16}, policies)
	put("sens-pmax", res, err)
	res, err = TaskCountSweep(s, []float64{1, 2, 5, 10, 20}, policies)
	put("sens-tasks", res, err)
	res, err = PredictorSweep(s, []string{"ewma", "oracle", "slot-ewma", "wcma"}, policies)
	put("sens-predictors", res, err)
	res, err = SlackFactorSweep(s, []float64{0.1, 0.25, 0.5, 0.75, 1}, policies)
	put("slack", res, err)
	res, err = SleepStateSweep(s, []string{"none", "default"}, policies)
	put("sleep", res, err)

	rs := RobustnessSpec{Base: s, Policies: policies, Intensities: []float64{0, 0.5, 1}, FaultSeed: 1, Capacity: 1000}
	rs.Base.Replications = 3
	rob, err := RobustnessSweep(rs)
	put("robustness", rob, err)
	got["robustness-summary"] = rob.Summary()

	one := s
	one.Capacities = []float64{300}
	over, err := Overhead(one, policies)
	put("overhead", over, err)
	for _, p := range policies {
		conv, err := Convergence(one, p, []int{2, 3, 4})
		put("convergence-"+p, conv, err)
	}

	b, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, '\n')
	checkGolden(t, "sweeps.golden.json", b)
}

// checkGolden compares b with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name string, b []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(b, want) {
		t.Fatalf("%s differs from the current build's results (%d vs %d bytes); run with -update only if a result is meant to move", path, len(b), len(want))
	}
}
