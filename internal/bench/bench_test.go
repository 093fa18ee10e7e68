package bench

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"sort"
	"testing"
)

// -update rewrites BENCH_baseline.json from the current cases.
var update = flag.Bool("update", false, "rewrite BENCH_baseline.json from the current cases")

const baselinePath = "../../BENCH_baseline.json"

// Allocations are near-deterministic, so the bound is tight: the
// probe-free hot path must stay (close to) allocation-free, and +15%+2
// only absorbs runtime bookkeeping jitter.
const (
	allocSlackFactor = 1.15
	allocSlackConst  = 2
)

// baseline is the BENCH_baseline.json schema.
type baseline struct {
	Cases []baselineCase `json:"cases"`
}

type baselineCase struct {
	Name        string             `json:"name"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics"`
}

// measure runs every case once and records its shape metrics and, outside
// race builds, its steady-state allocations (AllocsPerRun's warm-up run
// fills the process-wide memos first).
func measure(t *testing.T) []baselineCase {
	t.Helper()
	var out []baselineCase
	for _, c := range Cases() {
		bc := baselineCase{Name: c.Name}
		var err error
		if raceEnabled {
			bc.Metrics, err = c.Run(1)
		} else {
			bc.AllocsPerOp = testing.AllocsPerRun(1, func() {
				bc.Metrics, err = c.Run(1)
			})
		}
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		out = append(out, bc)
	}
	return out
}

// TestBaseline is the shape and allocation guard of the canonical cases
// against BENCH_baseline.json. Every shape metric must match bit for bit
// (the workloads are seed-deterministic, so any drift means the science
// changed), every case and metric must exist on both sides, and each
// case's steady-state allocs/op must stay within base×1.15+2. Race builds
// skip only the allocation bound.
func TestBaseline(t *testing.T) {
	got := measure(t)
	if *update {
		if raceEnabled {
			t.Fatal("-update records allocations; rerun without -race")
		}
		buf, err := json.MarshalIndent(baseline{Cases: got}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(baselinePath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(baselinePath)
	if err != nil {
		t.Fatal(err)
	}
	var want baseline
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("%s: %v", baselinePath, err)
	}
	wantByName := make(map[string]baselineCase, len(want.Cases))
	for _, w := range want.Cases {
		wantByName[w.Name] = w
	}
	for _, g := range got {
		w, ok := wantByName[g.Name]
		if !ok {
			t.Errorf("%s: case missing from the baseline", g.Name)
			continue
		}
		delete(wantByName, g.Name)
		t.Logf("%s: allocs/op %v, baseline %v", g.Name, g.AllocsPerOp, w.AllocsPerOp)
		if limit := w.AllocsPerOp*allocSlackFactor + allocSlackConst; !raceEnabled && g.AllocsPerOp > limit {
			t.Errorf("%s: allocs/op %v exceeds baseline %v (limit %.1f)", g.Name, g.AllocsPerOp, w.AllocsPerOp, limit)
		}
		for _, unit := range sortedUnits(w.Metrics, g.Metrics) {
			gv, gok := g.Metrics[unit]
			wv, wok := w.Metrics[unit]
			switch {
			case !gok:
				t.Errorf("%s: metric %s missing from the run (baseline %v)", g.Name, unit, wv)
			case !wok:
				t.Errorf("%s: metric %s missing from the baseline (run %v)", g.Name, unit, gv)
			case math.Float64bits(gv) != math.Float64bits(wv):
				t.Errorf("%s: metric %s drifted: %v != baseline %v (bits %016x != %016x)",
					g.Name, unit, gv, wv, math.Float64bits(gv), math.Float64bits(wv))
			}
		}
	}
	for name := range wantByName {
		t.Errorf("%s: baseline case is not in Cases()", name)
	}
}

// sortedUnits returns the union of the two metric sets' keys, sorted.
func sortedUnits(a, b map[string]float64) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var units []string
	for _, m := range []map[string]float64{a, b} {
		for u := range m {
			if !seen[u] {
				seen[u] = true
				units = append(units, u)
			}
		}
	}
	sort.Strings(units)
	return units
}

// BenchmarkCases runs each canonical case b.N times and reports its shape
// metrics beside the timing, so a benchstat diff shows both.
func BenchmarkCases(b *testing.B) {
	for _, c := range Cases() {
		b.Run(c.Name, func(b *testing.B) {
			metrics, err := c.Run(b.N)
			if err != nil {
				b.Fatal(err)
			}
			for unit, v := range metrics {
				b.ReportMetric(v, unit)
			}
		})
	}
}
