package experiment

import (
	"strings"
	"testing"
)

func testRobustnessSpec() RobustnessSpec {
	base := testSpec()
	base.Horizon = 1500
	base.Replications = 3
	return RobustnessSpec{
		Base:        base,
		Policies:    []string{"edf", "lsa", "ea-dvfs"},
		Intensities: []float64{0, 0.5, 1},
		FaultSeed:   1,
		Capacity:    400,
	}
}

func TestRobustnessSpecValidate(t *testing.T) {
	base := DefaultSpec()
	base.Replications = 20
	valid := RobustnessSpec{
		Base:        base,
		Policies:    []string{"edf", "lsa", "ea-dvfs"},
		Intensities: []float64{0, 0.25, 0.5, 0.75, 1},
		FaultSeed:   1,
		Capacity:    1000,
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("robustness spec over the default workload invalid: %v", err)
	}
	bad := []func(*RobustnessSpec){
		func(rs *RobustnessSpec) { rs.Capacity = 0 },
		func(rs *RobustnessSpec) { rs.Policies = nil },
		func(rs *RobustnessSpec) { rs.Intensities = nil },
		func(rs *RobustnessSpec) { rs.Intensities = []float64{0.5, 1.5} },
		func(rs *RobustnessSpec) { rs.Intensities = []float64{-0.1} },
		func(rs *RobustnessSpec) { rs.Base.Replications = 0 },
		func(rs *RobustnessSpec) { rs.Policies = []string{"nope"} },
	}
	for i, mutate := range bad {
		rs := valid
		mutate(&rs)
		if err := rs.Validate(); err == nil {
			if _, err2 := RobustnessSweep(rs); err2 == nil {
				t.Fatalf("mutation %d accepted", i)
			}
		}
	}
}

// The sweep completes under the full mixed-fault model at every intensity,
// degrades gracefully (no panic), and actually injects: the hostile points
// must show non-zero degradation counters, while intensity 0 must show
// none.
func TestRobustnessSweepRunsAndDegrades(t *testing.T) {
	rs := testRobustnessSpec()
	res, err := RobustnessSweep(rs)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range rs.Policies {
		if got := len(res.MissRates[name]); got != len(rs.Intensities) {
			t.Fatalf("%s: %d points, want %d", name, got, len(rs.Intensities))
		}
		for ii := range rs.Intensities {
			if res.Failed[name][ii] != 0 {
				t.Fatalf("%s@%g: %d failed runs: %v", name, rs.Intensities[ii], res.Failed[name][ii], res.Errs())
			}
		}
		if d := res.Degradation[name][0]; d.Any() {
			t.Fatalf("%s: intensity 0 recorded degradation %+v", name, d)
		}
		last := len(rs.Intensities) - 1
		d := res.Degradation[name][last]
		if !d.Any() {
			t.Fatalf("%s: full intensity recorded no degradation", name)
		}
		if d.SourceFaultTime <= 0 || d.Overruns <= 0 {
			t.Fatalf("%s: expected dropout time and overruns at full intensity, got %+v", name, d)
		}
	}
}

// Same master seeds → byte-identical summary, across invocations and
// across Parallelism settings. This is the ISSUE's reproducibility
// acceptance criterion for fault-injected runs.
func TestRobustnessSweepReproducible(t *testing.T) {
	rs := testRobustnessSpec()
	rs.Intensities = []float64{0.75}
	rs.Policies = []string{"lsa", "ea-dvfs"}

	old := Parallelism
	defer func() { Parallelism = old }()

	Parallelism = 8
	a, err := RobustnessSweep(rs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RobustnessSweep(rs)
	if err != nil {
		t.Fatal(err)
	}
	Parallelism = 1
	c, err := RobustnessSweep(rs)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary() != b.Summary() {
		t.Fatalf("two invocations differ:\n%s\nvs\n%s", a.Summary(), b.Summary())
	}
	if a.Summary() != c.Summary() {
		t.Fatalf("Parallelism 8 vs 1 differ:\n%s\nvs\n%s", a.Summary(), c.Summary())
	}
	if !strings.Contains(a.Summary(), "lsa") {
		t.Fatalf("summary missing policy rows:\n%s", a.Summary())
	}
}

// At intensity 0 the fault layer must be completely inert: the sweep's
// miss tallies are bit-identical to the fault-free MissRateSweep on the
// same workload seeds. Under a stochastic workload this also pins the
// execution seed: each replication draws its own per-job execution times,
// paired with the fault-free sweep's.
func TestRobustnessIntensityZeroMatchesBaseline(t *testing.T) {
	for _, model := range []string{"", "stochastic-periodic"} {
		rs := testRobustnessSpec()
		rs.Base.TaskModel = model
		rs.Intensities = []float64{0}

		res, err := RobustnessSweep(rs)
		if err != nil {
			t.Fatal(err)
		}
		base := rs.Base
		base.Capacities = []float64{rs.Capacity}
		ref, err := MissRateSweep(base, rs.Policies)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range rs.Policies {
			got, want := res.Stats[name][0], ref.Stats[name][0]
			if got != want {
				t.Fatalf("%s (task model %q): faults-disabled tallies %+v != baseline %+v", name, model, got, want)
			}
		}
	}
}
