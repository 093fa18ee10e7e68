package eadvfs

import (
	"math"
	"strings"
	"testing"
)

func TestRunDefaults(t *testing.T) {
	res, err := Run(Config{Horizon: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "ea-dvfs" {
		t.Fatalf("default policy = %q", res.Policy)
	}
	if res.Released == 0 {
		t.Fatal("no jobs released")
	}
	if res.MissRate < 0 || res.MissRate > 1 {
		t.Fatalf("miss rate %v", res.MissRate)
	}
	if math.Abs(res.BusyTime+res.IdleTime+res.StallTime-2000) > 1e-6 {
		t.Fatal("time accounting does not close")
	}
	if len(res.LevelTime) != 5 {
		t.Fatalf("XScale has 5 levels, got %d", len(res.LevelTime))
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := Config{Horizon: 1500, Seed: 9, RecordEnergy: true}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Missed != b.Missed || a.CPUEnergy != b.CPUEnergy {
		t.Fatal("same config, different results")
	}
	for i := range a.StoredEnergy {
		if a.StoredEnergy[i] != b.StoredEnergy[i] {
			t.Fatal("energy series differ")
		}
	}
}

func TestRunExplicitTasks(t *testing.T) {
	harvest := 0.5
	res, err := Run(Config{
		Horizon:         25,
		Policy:          "lsa",
		Predictor:       "oracle",
		Capacity:        1e6,
		InitialEnergy:   f64(24),
		PMax:            8,
		ConstantHarvest: &harvest,
		Tasks: []Task{
			{Period: 1e9, Deadline: 16, WCET: 4},
			{Period: 1e9, Deadline: 16, WCET: 1.5, Offset: 5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 1 through the public API (with the 5-level XScale table the
	// counts still hold: LSA runs flat-out and τ2 starves).
	if res.Released != 2 || res.Missed != 1 {
		t.Fatalf("outcome = %+v", res)
	}
}

func TestRunDeadlineDefaultsToPeriod(t *testing.T) {
	res, err := Run(Config{
		Horizon:         100,
		Capacity:        1e5,
		ConstantHarvest: f64(5),
		Tasks:           []Task{{Period: 10, WCET: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Released != 10 || res.Missed != 0 {
		t.Fatalf("outcome = %+v", res)
	}
}

func TestRunHarvestTrace(t *testing.T) {
	res, err := Run(Config{
		Horizon:      200,
		HarvestTrace: []float64{8, 0, 0, 4},
		Capacity:     100,
		Utilization:  0.3,
		RecordEnergy: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.HarvestedEnergy <= 0 {
		t.Fatal("trace source harvested nothing")
	}
	if len(res.StoredEnergy) != 201 {
		t.Fatalf("energy series length %d", len(res.StoredEnergy))
	}
}

func TestRunErrors(t *testing.T) {
	neg := -1.0
	h := 1.0
	nan := math.NaN()
	cases := []struct {
		cfg   Config
		field string // the field the error must name, when set
	}{
		{Config{Policy: "bogus"}, ""},
		{Config{Predictor: "bogus"}, ""},
		{Config{ConstantHarvest: &neg}, ""},
		{Config{HarvestTrace: []float64{-1}}, ""},
		{Config{ConstantHarvest: &h, HarvestTrace: []float64{1}}, ""},
		{Config{InitialEnergy: f64(5000), Capacity: 10}, ""},
		{Config{Tasks: []Task{{Period: -1, WCET: 1}}}, ""},
		{Config{Tasks: []Task{{Period: 10, Deadline: 2, WCET: 5}}}, ""},
		// Platform and store parameters are rejected up front, naming
		// the field, rather than panicking in a constructor.
		{Config{PMax: -1}, "PMax"},
		{Config{PMax: nan}, "PMax"},
		{Config{PMax: math.Inf(1)}, "PMax"},
		{Config{Capacity: -5}, "Capacity"},
		{Config{Capacity: nan}, "Capacity"},
		{Config{Capacity: math.Inf(1)}, "Capacity"},
		{Config{InitialEnergy: &nan}, "InitialEnergy"},
		// A NaN utilization once sent the task generator into unbounded
		// redraw recursion: a fatal stack overflow recover cannot catch.
		{Config{Utilization: nan}, "utilization"},
		// NaN once passed the range check and failed deep in the engine.
		{Config{FaultIntensity: nan}, "fault intensity"},
		{Config{FaultIntensity: -0.1}, "fault intensity"},
		{Config{FaultIntensity: 1.5}, "fault intensity"},
		// A PMax whose scaled XScale table underflows once panicked in
		// the processor constructor.
		{Config{PMax: 5e-324, Tasks: []Task{{Period: 10, WCET: 1}}}, "pmax"},
	}
	for i, tc := range cases {
		_, err := Run(tc.cfg)
		if err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("bad config %d: error %q does not name %s", i, err, tc.field)
		}
	}
}

func TestPolicyAndPredictorLists(t *testing.T) {
	for _, p := range Policies() {
		if _, err := Run(Config{Horizon: 50, Policy: p, Utilization: 0.2, NumTasks: 2}); err != nil {
			t.Fatalf("listed policy %q does not run: %v", p, err)
		}
	}
	for _, p := range Predictors() {
		if _, err := Run(Config{Horizon: 50, Predictor: p, Utilization: 0.2, NumTasks: 2}); err != nil {
			t.Fatalf("listed predictor %q does not run: %v", p, err)
		}
	}
}

// EA-DVFS through the facade beats LSA on the paper's workload at low
// utilization — the headline claim, smoke-checked end to end.
func TestHeadlineClaimThroughFacade(t *testing.T) {
	var lsaMissed, eaMissed int
	for seed := uint64(1); seed <= 8; seed++ {
		for _, policy := range []string{"lsa", "ea-dvfs"} {
			res, err := Run(Config{Horizon: 5000, Policy: policy, Capacity: 300, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if policy == "lsa" {
				lsaMissed += res.Missed
			} else {
				eaMissed += res.Missed
			}
		}
	}
	if eaMissed > lsaMissed/2 {
		t.Fatalf("EA-DVFS missed %d vs LSA %d — expected at least a 50%% reduction at U=0.4", eaMissed, lsaMissed)
	}
}

func f64(v float64) *float64 { return &v }

func TestCompare(t *testing.T) {
	res, err := Compare(Config{Horizon: 1500, Capacity: 300, Seed: 4}, "lsa", "ea-dvfs")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results for %d policies", len(res))
	}
	// Identical workload: released counts match across policies.
	if res["lsa"].Released != res["ea-dvfs"].Released {
		t.Fatalf("workloads differ: %d vs %d", res["lsa"].Released, res["ea-dvfs"].Released)
	}
	if res["lsa"].Policy != "lsa" || res["ea-dvfs"].Policy != "ea-dvfs" {
		t.Fatal("policy labels wrong")
	}
}

func TestCompareDefaultsToAllPolicies(t *testing.T) {
	res, err := Compare(Config{Horizon: 200, Capacity: 100, NumTasks: 2, Utilization: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(Policies()) {
		t.Fatalf("got %d results, want %d", len(res), len(Policies()))
	}
}

func TestCompareBadPolicy(t *testing.T) {
	if _, err := Compare(Config{Horizon: 100}, "bogus"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
