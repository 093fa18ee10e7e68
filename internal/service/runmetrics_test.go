package service

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/eadvfs/eadvfs"
	"github.com/eadvfs/eadvfs/internal/experiment"
	"github.com/eadvfs/eadvfs/internal/obs"
)

// runSeries renders a registry's eadvfs_run_* exposition lines.
func runSeries(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if strings.Contains(line, "eadvfs_run") {
			out.WriteString(line)
		}
	}
	return out.String()
}

// TestRunMetricsFacadeMatchesExperiment: the experiment harness (from a
// sim.Result) and the service (from the facade's eadvfs.Result) record
// the same run as byte-identical eadvfs_run_* series.
func TestRunMetricsFacadeMatchesExperiment(t *testing.T) {
	spec := experiment.DefaultSpec()
	spec.Horizon = 2000
	spec.Metrics = obs.NewRegistry()
	rep, err := experiment.Replicate(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	const capacity = 200
	pf, err := spec.PolicyFor("ea-dvfs")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := experiment.RunOne(context.Background(), spec, rep, capacity, pf, false); err != nil {
		t.Fatal(err)
	}

	cfg := eadvfs.Config{Horizon: spec.Horizon, Policy: "ea-dvfs", Capacity: capacity, PMax: spec.PMax, Seed: rep.SourceSeed}
	for _, tk := range rep.Tasks {
		cfg.Tasks = append(cfg.Tasks, eadvfs.Task{Period: tk.Period, Deadline: tk.Deadline, WCET: tk.WCET, Offset: tk.Offset})
	}
	res, err := eadvfs.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Missed == 0 {
		t.Fatal("run has no misses; pick a tighter capacity so the miss series are exercised")
	}
	facade := obs.NewRegistry()
	facade.RecordRun(runOutcome(res))

	got, want := runSeries(t, facade), runSeries(t, spec.Metrics)
	if want == "" {
		t.Fatal("experiment path recorded no eadvfs_run_* series")
	}
	if got != want {
		t.Errorf("facade exposition differs from the experiment path:\n--- facade\n%s--- experiment\n%s", got, want)
	}
}
