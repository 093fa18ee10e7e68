package experiment

import (
	"reflect"
	"testing"
)

func sensSpec() Spec {
	s := DefaultSpec()
	s.Horizon = 1500
	s.Replications = 3
	s.Capacities = []float64{300}
	return s
}

func TestLevelCountSweep(t *testing.T) {
	s := sensSpec()
	res, err := LevelCountSweep(s, []float64{1, 2, 5}, []string{"ea-dvfs"})
	if err != nil {
		t.Fatal(err)
	}
	rates := res.Rates["ea-dvfs"]
	if len(rates) != 3 {
		t.Fatalf("points = %d", len(rates))
	}
	for i, r := range rates {
		if r < 0 || r > 1 {
			t.Fatalf("rate[%d] = %v", i, r)
		}
	}
	// One level = no DVFS: EA-DVFS degenerates to LSA-like behaviour and
	// must not beat its own 5-level version.
	if rates[2] > rates[0]+0.02 {
		t.Fatalf("more DVFS levels made things worse: 1-level %v vs 5-level %v", rates[0], rates[2])
	}
}

func TestPMaxSweepMonotoneStarvation(t *testing.T) {
	s := sensSpec()
	res, err := PMaxSweep(s, []float64{4, 10, 20}, []string{"lsa"})
	if err != nil {
		t.Fatal(err)
	}
	rates := res.Rates["lsa"]
	// A hungrier processor starves more.
	if !(rates[0] <= rates[1]+0.02 && rates[1] <= rates[2]+0.02) {
		t.Fatalf("miss rate not increasing with PMax: %v", rates)
	}
}

func TestTaskCountSweep(t *testing.T) {
	s := sensSpec()
	res, err := TaskCountSweep(s, []float64{2, 8}, []string{"ea-dvfs", "lsa"})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range res.Policies {
		for i, r := range res.Rates[name] {
			if r < 0 || r > 1 {
				t.Fatalf("%s rate[%d] = %v", name, i, r)
			}
		}
	}
}

func TestPredictorSweep(t *testing.T) {
	s := sensSpec()
	res, err := PredictorSweep(s, []string{"oracle", "ewma", "zero"}, []string{"ea-dvfs"})
	if err != nil {
		t.Fatal(err)
	}
	rates := res.Rates["ea-dvfs"]
	if len(rates) != 3 {
		t.Fatalf("points = %d", len(rates))
	}
	// The pessimist must not beat the oracle by a margin.
	if rates[2] < rates[0]-0.02 {
		t.Fatalf("zero predictor (%v) beat oracle (%v)", rates[2], rates[0])
	}
}

func TestSweepErrors(t *testing.T) {
	s := sensSpec()
	if _, err := LevelCountSweep(s, nil, []string{"ea-dvfs"}); err == nil {
		t.Fatal("empty sweep accepted")
	}
	if _, err := LevelCountSweep(s, []float64{0}, []string{"ea-dvfs"}); err == nil {
		t.Fatal("zero level count accepted")
	}
	if _, err := PMaxSweep(s, []float64{-1}, []string{"lsa"}); err == nil {
		t.Fatal("negative pmax accepted")
	}
	if _, err := TaskCountSweep(s, []float64{0}, []string{"lsa"}); err == nil {
		t.Fatal("zero task count accepted")
	}
	if _, err := PredictorSweep(s, []string{"bogus"}, []string{"lsa"}); err == nil {
		t.Fatal("unknown predictor accepted")
	}
	if _, err := LevelCountSweep(s, []float64{2}, []string{"bogus"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// Static (energy-oblivious) DVFS versus EA-DVFS: at low utilization,
// running everything at the utilization speed is already energy-optimal
// and timing-feasible, so static DVFS wins — EA-DVFS pays for running at
// full speed whenever the store looks healthy. At high utilization the
// static speed approaches f_max, the pure-DVFS gain evaporates, and
// energy awareness (lazy starts, selective stretching) takes over. The
// crossover is the interesting measurement (EXPERIMENTS.md ablations).
func TestStaticDVFSCrossover(t *testing.T) {
	rates := func(u float64) (float64, float64) {
		s := sensSpec()
		s.Utilization = u
		res, err := MissRateSweep(s, []string{"static-dvfs", "ea-dvfs"})
		if err != nil {
			t.Fatal(err)
		}
		return res.Rates["static-dvfs"][0], res.Rates["ea-dvfs"][0]
	}
	staticLow, eaLow := rates(0.4)
	if staticLow > eaLow+0.02 {
		t.Fatalf("U=0.4: static %v should not lose to ea %v (pure DVFS suffices)", staticLow, eaLow)
	}
	staticHigh, eaHigh := rates(0.9)
	if eaHigh > staticHigh+0.02 {
		t.Fatalf("U=0.9: ea %v should beat static %v (energy awareness matters)", eaHigh, staticHigh)
	}
}

// Sensitivity cells run through the same run builder as every other
// sweep, so the spec's predictor smoothing override reaches them: at the
// spec's own PMax, PMaxSweep reproduces MissRateSweep at the sweep
// capacity — and the override must matter for the chosen spec, or the
// equality would prove nothing.
func TestPMaxSweepHonoursPredictorAlpha(t *testing.T) {
	s := sensSpec()
	s.Capacities = []float64{defaultSweepCapacity}
	s.PredictorAlpha = 0.05
	policies := []string{"ea-dvfs"}

	swept, err := PMaxSweep(s, []float64{s.PMax}, policies)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := MissRateSweep(s, policies)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := swept.Rates["ea-dvfs"][0], ref.Rates["ea-dvfs"][0]; got != want {
		t.Fatalf("PMaxSweep at PMax %v: rate %v, MissRateSweep %v", s.PMax, got, want)
	}

	s.PredictorAlpha = 0
	def, err := MissRateSweep(s, policies)
	if err != nil {
		t.Fatal(err)
	}
	if def.Rates["ea-dvfs"][0] == ref.Rates["ea-dvfs"][0] {
		t.Fatalf("alpha 0.05 and the default alpha give the same rate %v; pick a spec where alpha matters",
			ref.Rates["ea-dvfs"][0])
	}
}

// LevelCountSweep's cubic processor carries the spec's sleep preset, as
// every other sweep's processor does: with the DPM states attached the
// stochastic workload sleeps in its slack and the miss rates move.
func TestLevelCountSweepHonoursSleep(t *testing.T) {
	s := sensSpec()
	s.TaskModel = "stochastic-periodic"
	rates := func(sleep string) []float64 {
		sp := s
		sp.Sleep = sleep
		res, err := LevelCountSweep(sp, []float64{3, 5}, []string{"lsa"})
		if err != nil {
			t.Fatal(err)
		}
		return res.Rates["lsa"]
	}
	if none, dpm := rates(""), rates("default"); reflect.DeepEqual(none, dpm) {
		t.Fatalf("sleep preset ignored: rates %v with and without it", none)
	}
}
