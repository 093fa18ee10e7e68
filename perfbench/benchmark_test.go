package main

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadRepoBenchmark(t *testing.T) *benchmarkFile {
	t.Helper()
	b, err := loadBenchmark(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkFile(t *testing.T) {
	b := loadRepoBenchmark(t)
	if info, err := os.Stat(filepath.Join("..", "BENCHMARK.json")); err != nil || info.Size() > 64<<10 {
		t.Fatalf("BENCHMARK.json must exist and stay under 64 KiB: %v", err)
	}
	if !reflect.DeepEqual(b.Command, []string{"bash", "perfbench/run.sh"}) || !reflect.DeepEqual(b.Paths, []string{"perfbench"}) {
		t.Errorf("command %q / paths %q do not run this package", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRe.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, nameRe)
		}
		if seen[n] {
			t.Errorf("%s name %q used twice", kind, n)
		}
		seen[n] = true
	}
	var names []string
	for _, w := range b.Workloads {
		name("workload", w.Name)
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program runs %d", len(names), len(workloads))
	}
	for _, d := range append(append([]metricDef(nil), b.EndToEnd...), b.PerLayer...) {
		name("metric", d.Name)
		if !unitRe.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", d.Name, d.Unit, unitRe)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
	}
	var setup metricDef
	for _, d := range b.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d
		}
	}
	if setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be declared in s, lower is better: %+v", setup)
	}
	for _, d := range b.EndToEnd {
		if d.Bound > setup.Bound {
			t.Errorf("metric %s has a wider bound (%v) than setup_s (%v)", d.Name, d.Bound, setup.Bound)
		}
	}
	// The program's metric catalog is a copy of the file.
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the program's list")
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the program's list")
	}
	// A full calibration — 4 + 22 runs per workload, each a window plus
	// serve's warm-up, set-up, checks and process start, and two builds —
	// must end within 3420 s.
	runs := 4 + 22*len(b.Workloads)
	perRun := time.Duration(b.RunSeconds)*time.Second + serveWarmup + 4*time.Second
	if budget := time.Duration(runs)*perRun + 2*150*time.Second; budget > 3420*time.Second {
		t.Errorf("%d runs of %ds and two builds take %v, more than 3420 s", runs, b.RunSeconds, budget)
	}
}

// TestWorkloadsEmitEveryMetric runs every workload briefly, traced and
// untraced, through the Go API: every metric BENCHMARK.json names must be
// emitted with its unit, every check must pass, and the outputs a traced
// and an untraced run share must be identical.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := loadRepoBenchmark(t)
	for _, w := range b.Workloads {
		wl, _ := findWorkload(w.Name)
		t.Run(w.Name, func(t *testing.T) {
			var reports [2]*report
			for i, trace := range []bool{false, true} {
				o := options{seed: 7, seconds: 300 * time.Millisecond, trace: trace}
				r, err := wl.run(o)
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				res, err := r.result(trace)
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d checks=%+v", trace, res.Correct, res.Attempted, res.Failed, r.checks)
				}
				defs := b.EndToEnd
				if trace {
					defs = b.PerLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics emitted, BENCHMARK.json names %d", trace, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("trace=%v: metric %s emitted as %+v (present %v), want unit %s", trace, d.Name, m, ok, d.Unit)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("trace=%v: metric %s = %v", trace, d.Name, m.Value)
					}
				}
				if !trace {
					for _, d := range defs {
						if res.Metrics[d.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, res.Metrics[d.Name].Value)
						}
					}
				}
				reports[i] = r
			}
			shared := 0
			for k, sum := range reports[0].outputs {
				if other, ok := reports[1].outputs[k]; ok {
					shared++
					if other != sum {
						t.Errorf("output %d differs between the traced and the untraced run", k)
					}
				}
			}
			if shared == 0 {
				t.Errorf("the traced and untraced runs share no output to compare")
			}
		})
	}
}

// TestEngineLayerSplit checks that a traced engine run reports the same
// outputs as an untraced one and a layer split whose shares sum to 1.
func TestEngineLayerSplit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the engine workload for seconds")
	}
	untraced, err := runEngine(options{seed: 3, seconds: 1500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runEngine(options{seed: 3, seconds: 4 * time.Second, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(untraced.outputs) != len(traced.outputs) || untraced.digest != traced.digest {
		t.Errorf("digest %s over %d outputs untraced, %s over %d traced",
			untraced.digest, len(untraced.outputs), traced.digest, len(traced.outputs))
	}
	var total float64
	for _, s := range []string{"sim.self_share", "sched.share", "energy.share", "storage.share"} {
		v, ok := traced.values[s]
		if !ok {
			t.Fatalf("%s not reported", s)
		}
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("layer shares sum to %v, want 1", total)
	}
	if v := traced.values["trace.overhead_ratio"]; !(v > 1) {
		t.Errorf("trace.overhead_ratio = %v, want > 1", v)
	}
	if traced.values["sched.decide.calls_per_op"] <= 0 || traced.values["storage.flow.ns_per_call"] <= 0 {
		t.Errorf("layer counts or costs missing: %v", traced.values)
	}
}
