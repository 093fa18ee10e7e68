package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/eadvfs/eadvfs/internal/analysis"
	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/registry"
	"github.com/eadvfs/eadvfs/internal/rng"
	"github.com/eadvfs/eadvfs/internal/task"
)

// seededWorkload is the workload a generated easim run simulates: the
// periodic task model drawn from rng.New(seed), sized to the seed's
// solar source and the XScale table rescaled to pmax.
func seededWorkload(t *testing.T, seed uint64, n int, u, pmax float64) ([]task.Task, *cpu.Processor, energy.Source) {
	t.Helper()
	src := energy.NewSolarModel(seed)
	model, err := registry.TaskModel("")
	if err != nil {
		t.Fatal(err)
	}
	gen := registry.TaskGen{NumTasks: n, TargetU: u, MeanHarvestPower: src.MeanPower(), PMax: pmax}
	tasks, err := model.Build(gen, nil, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return tasks, cpu.XScaleScaled(pmax), src
}

// analysisText is the report block easim prints for the workload.
func analysisText(t *testing.T, tasks []task.Task, proc *cpu.Processor, src energy.Source, horizon float64) string {
	t.Helper()
	report, err := analysis.Analyze(tasks, proc, src, horizon)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	printAnalysis(&b, report)
	return b.String()
}

// releasePeriods reads each task's period off an event stream: the time
// of its second arrival (every generated task has offset 0).
func releasePeriods(t *testing.T, path string) map[int]float64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	periods := map[int]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev struct {
			T    float64 `json:"t"`
			Kind string  `json:"kind"`
			Task int     `json:"task"`
			Seq  int     `json:"seq"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind == "arrival" && ev.Seq == 1 {
			periods[ev.Task] = ev.T
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return periods
}

// -analyze reports on the workload the run simulates: the same task set
// (its periods read back from the run's own event stream) and the same
// solar sample path.
func TestAnalyzeReportsTheSimulatedWorkload(t *testing.T) {
	events := filepath.Join(t.TempDir(), "events.jsonl")
	var out, errb bytes.Buffer
	if code := run([]string{"-horizon", "600", "-analyze", "-events-out", events}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	tasks, proc, src := seededWorkload(t, 1, 5, 0.4, 10)
	got := releasePeriods(t, events)
	if len(got) != len(tasks) {
		t.Fatalf("run released %d tasks, want %d", len(got), len(tasks))
	}
	for _, tk := range tasks {
		if got[tk.ID] != tk.Period {
			t.Fatalf("run released task %d with period %v, workload has %v", tk.ID, got[tk.ID], tk.Period)
		}
	}
	want := analysisText(t, tasks, proc, src, 600)
	if !strings.HasSuffix(out.String(), want) {
		t.Fatalf("analysis does not describe the simulated workload:\n got: %s\nwant: %s", out.String(), want)
	}
}

// A replayed manifest is analyzed at its own horizon, not the -horizon
// flag's default.
func TestAnalyzeReplayUsesManifestHorizon(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "manifest.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-horizon", "2000", "-seed", "3", "-manifest-out", manifest}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	out.Reset()
	if code := run([]string{"-replay", manifest, "-analyze"}, &out, &errb); code != 0 {
		t.Fatalf("replay exit %d, stderr: %s", code, errb.String())
	}
	tasks, proc, src := seededWorkload(t, 3, 5, 0.4, 10)
	want := analysisText(t, tasks, proc, src, 2000)
	if other := analysisText(t, tasks, proc, src, 10000); other == want {
		t.Fatal("the report does not depend on the horizon; the test cannot tell them apart")
	}
	if !strings.HasSuffix(out.String(), want) {
		t.Fatalf("replay not analyzed at the manifest's horizon:\n got: %s\nwant: %s", out.String(), want)
	}
}

// Bad flag values exit 1 with a named error, never a stack trace.
func TestBadFlagValue(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-fault-intensity", "1.5", "-horizon", "10"}, &out, &errb)
	if code != 1 || !strings.Contains(errb.String(), "fault intensity") {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
}
