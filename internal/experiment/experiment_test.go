package experiment

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
)

// testSpec is a fast spec for unit tests: shorter horizon, few reps.
func testSpec() Spec {
	s := DefaultSpec()
	s.Horizon = 2000
	s.Replications = 3
	s.Capacities = []float64{200, 1000}
	return s
}

func TestSpecValidate(t *testing.T) {
	if err := DefaultSpec().Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
	bad := []func(*Spec){
		func(s *Spec) { s.Horizon = 0 },
		func(s *Spec) { s.NumTasks = 0 },
		func(s *Spec) { s.Utilization = 0 },
		func(s *Spec) { s.Utilization = 1.5 },
		func(s *Spec) { s.Capacities = nil },
		func(s *Spec) { s.Capacities = []float64{0} },
		func(s *Spec) { s.Replications = 0 },
		func(s *Spec) { s.Predictor = "nope" },
		func(s *Spec) { s.PMax = 0 },
	}
	for i, mutate := range bad {
		s := DefaultSpec()
		mutate(&s)
		if s.Validate() == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
	}
}

// Non-finite parameters fail validation, naming the field, instead of
// panicking deep in the processor or trace construction.
func TestSpecValidateNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		field  string
		mutate func(*Spec)
	}{
		{"PMax", func(s *Spec) { s.PMax = nan }},
		{"PMax", func(s *Spec) { s.PMax = inf }},
		{"PMax", func(s *Spec) { s.PMax = -inf }},
		{"horizon", func(s *Spec) { s.Horizon = nan }},
		{"horizon", func(s *Spec) { s.Horizon = inf }},
		{"utilization", func(s *Spec) { s.Utilization = nan }},
	}
	for _, tc := range cases {
		s := testSpec()
		tc.mutate(&s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("want an error naming %s, got %v", tc.field, err)
		}
	}
}

func TestPolicyFactories(t *testing.T) {
	for _, name := range []string{"edf", "lsa", "ea-dvfs", "ea-dvfs-dynamic", "greedy-stretch"} {
		f, err := Policy(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := f().Name(); got != name {
			t.Fatalf("factory %q built policy %q", name, got)
		}
	}
	if _, err := Policy("bogus"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestPredictorFactories(t *testing.T) {
	for _, name := range []string{"", "ewma", "oracle", "slot-ewma", "moving-average", "last-value", "zero"} {
		f, err := Spec{}.PredictorFor(name)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if f == nil {
			t.Fatalf("%q: nil factory", name)
		}
	}
	if _, err := (Spec{}).PredictorFor("bogus"); err == nil {
		t.Fatal("unknown predictor accepted")
	}
}

func TestReplicatePairing(t *testing.T) {
	s := testSpec()
	a, err := Replicate(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replicate(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.SourceSeed != b.SourceSeed || len(a.Tasks) != len(b.Tasks) {
		t.Fatal("replication not deterministic")
	}
	for i := range a.Tasks {
		if a.Tasks[i] != b.Tasks[i] {
			t.Fatal("task sets differ across identical Replicate calls")
		}
	}
	c, err := Replicate(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.SourceSeed == a.SourceSeed {
		t.Fatal("different replications share a source seed")
	}
}

func TestRunOnePairedComparability(t *testing.T) {
	// The same replication must expose identical workload+source to both
	// policies: released counts must match exactly.
	s := testSpec()
	rep, err := Replicate(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	lsa, _ := Policy("lsa")
	ea, _ := Policy("ea-dvfs")
	ra, err := RunOne(context.Background(), s, rep, 500, lsa, false)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := RunOne(context.Background(), s, rep, 500, ea, false)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Miss.Released != rb.Miss.Released {
		t.Fatalf("released differ: %d vs %d", ra.Miss.Released, rb.Miss.Released)
	}
	// The offered harvest is the same sample path; the meters differ only
	// by float summation order (different event splits).
	if math.Abs(ra.Meters.Harvested-rb.Meters.Harvested) > 1e-6 {
		t.Fatalf("harvest differs: %v vs %v", ra.Meters.Harvested, rb.Meters.Harvested)
	}
}

func TestSourceTraceShape(t *testing.T) {
	s := SourceTrace(7, 1000)
	if s.Len() != 1000 {
		t.Fatalf("trace length %d", s.Len())
	}
	maxV := 0.0
	for _, v := range s.Values {
		if v < 0 {
			t.Fatalf("negative source sample %v", v)
		}
		maxV = math.Max(maxV, v)
	}
	// Figure 5 shows peaks up to ~20 with amplitude 10.
	if maxV < 5 || maxV > 60 {
		t.Fatalf("trace max %v outside plausible Figure 5 range", maxV)
	}
	// Determinism.
	s2 := SourceTrace(7, 1000)
	for i := range s.Values {
		if s.Values[i] != s2.Values[i] {
			t.Fatal("source trace not deterministic")
		}
	}
}

func TestRemainingEnergyCurves(t *testing.T) {
	s := testSpec()
	m, err := RunSweep(context.Background(), "remaining", s, []string{"lsa", "ea-dvfs"})
	if err != nil {
		t.Fatal(err)
	}
	res := m.Remaining
	for name, curve := range res.Curves {
		if curve.Len() != int(s.Horizon)+1 {
			t.Fatalf("%s: curve length %d", name, curve.Len())
		}
		if math.Abs(curve.Values[0]-1) > 1e-9 {
			t.Fatalf("%s: storage starts full, normalized %v != 1", name, curve.Values[0])
		}
		for i, v := range curve.Values {
			if v < -1e-9 || v > 1+1e-9 {
				t.Fatalf("%s: normalized energy %v at %d outside [0,1]", name, v, i)
			}
		}
	}
	// §5.2: at low utilization EA-DVFS stores more energy on average.
	if ea, lsa := res.Curves["ea-dvfs"].Mean(), res.Curves["lsa"].Mean(); ea < lsa {
		t.Fatalf("EA-DVFS mean remaining energy %v < LSA %v at U=0.4", ea, lsa)
	}
}

func TestMissRateSweepShape(t *testing.T) {
	s := testSpec()
	s.Capacities = []float64{100, 500, 2000}
	res, err := MissRateSweep(s, []string{"lsa", "ea-dvfs"})
	if err != nil {
		t.Fatal(err)
	}
	for name, rates := range res.Rates {
		for i, r := range rates {
			if r < 0 || r > 1 {
				t.Fatalf("%s: rate %v at capacity %v", name, r, res.Capacities[i])
			}
		}
	}
	// Larger storage must not hurt (monotone envelope).
	lsa := res.Rates["lsa"]
	if lsa[0] < lsa[len(lsa)-1]-0.02 {
		t.Fatalf("LSA miss rate increased with capacity: %v", lsa)
	}
	// §5.3: EA-DVFS at U=0.4 beats LSA clearly at every capacity where
	// LSA misses at all.
	for i := range res.Capacities {
		if res.Rates["lsa"][i] > 0.05 && res.Rates["ea-dvfs"][i] > res.Rates["lsa"][i] {
			t.Fatalf("EA-DVFS worse than LSA at capacity %v: %v vs %v",
				res.Capacities[i], res.Rates["ea-dvfs"][i], res.Rates["lsa"][i])
		}
	}
	if res.NormalizedCapacity(len(res.Capacities)-1) != 1 {
		t.Fatal("last capacity must normalize to 1")
	}
}

func TestMissRateSweepErrors(t *testing.T) {
	s := testSpec()
	if _, err := MissRateSweep(s, nil); err == nil {
		t.Fatal("empty policy list accepted")
	}
	if _, err := MissRateSweep(s, []string{"bogus"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	s.Horizon = -1
	if _, err := MissRateSweep(s, []string{"lsa"}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestMinCapacitySearch(t *testing.T) {
	s := testSpec()
	rep, err := Replicate(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	ea, _ := Policy("ea-dvfs")
	cmin, ok, err := MinCapacitySearch(s, rep, ea, 1, 1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no zero-miss capacity found for a U=0.4 workload")
	}
	// Zero misses at cmin.
	res, err := RunOne(context.Background(), s, rep, cmin, ea, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Miss.Missed != 0 {
		t.Fatalf("misses at reported Cmin %v: %d", cmin, res.Miss.Missed)
	}
	// Misses strictly below (half) unless cmin hit the lower bound.
	if cmin > 4 {
		res, err = RunOne(context.Background(), s, rep, cmin/2, ea, false)
		if err != nil {
			t.Fatal(err)
		}
		if res.Miss.Missed == 0 {
			t.Fatalf("zero misses well below Cmin (%v): search not tight", cmin/2)
		}
	}
}

func TestMinCapacitySearchBadBounds(t *testing.T) {
	s := testSpec()
	rep, _ := Replicate(s, 0)
	ea, _ := Policy("ea-dvfs")
	for i, args := range [][3]float64{{0, 10, 1}, {10, 5, 1}, {1, 10, 0}} {
		if _, _, err := MinCapacitySearch(s, rep, ea, args[0], args[1], args[2]); err == nil {
			t.Fatalf("bad bounds case %d accepted", i)
		}
	}
}

func TestMinCapacityTableShape(t *testing.T) {
	s := testSpec()
	s.Replications = 2
	res, err := MinCapacity(s, []float64{0.3, 0.7}, []string{"lsa", "ea-dvfs"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 0 {
		t.Fatalf("skipped %d replications", res.Skipped)
	}
	// Table 1 shape: the LSA/EA-DVFS ratio is >= ~1 everywhere and larger
	// at low utilization.
	if res.Ratio[0] < 1 || res.Ratio[1] < 0.98 {
		t.Fatalf("ratios = %v, want >= 1", res.Ratio)
	}
	if res.Ratio[0] < res.Ratio[1] {
		t.Fatalf("ratio did not shrink with utilization: %v", res.Ratio)
	}
	// Means populated.
	if res.Mean["lsa"][0] <= 0 || res.Mean["ea-dvfs"][0] <= 0 {
		t.Fatalf("means = %+v", res.Mean)
	}
}

func TestMinCapacityErrors(t *testing.T) {
	s := testSpec()
	if _, err := MinCapacity(s, []float64{0.4}, []string{"lsa"}); err == nil {
		t.Fatal("single-policy Table 1 accepted")
	}
	if _, err := MinCapacity(s, nil, []string{"lsa", "ea-dvfs"}); err == nil {
		t.Fatal("empty utilizations accepted")
	}
	if _, err := MinCapacity(s, []float64{2}, []string{"lsa", "ea-dvfs"}); err == nil {
		t.Fatal("utilization > 1 accepted")
	}
}

// MinCapacity resolves its policies at each utilization it sweeps, not at
// the base spec: static-dvfs sizes its fixed operating point from the
// utilization, so a Table 1 point must not depend on the base spec's.
// Sized at the base U 0.4, static-dvfs runs too slowly for U 0.8 and no
// capacity makes it feasible.
func TestMinCapacityBindsPointUtilization(t *testing.T) {
	table := func(base float64) *MinCapacityResult {
		s := testSpec()
		s.Replications = 2
		s.Utilization = base
		res, err := MinCapacity(s, []float64{0.8}, []string{"static-dvfs", "ea-dvfs"})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	at, from := table(0.8), table(0.4)
	if at.Skipped != 0 {
		t.Fatalf("static-dvfs sized at U 0.8 skipped %d replications", at.Skipped)
	}
	if !reflect.DeepEqual(at, from) {
		t.Fatalf("Table 1 at U 0.8 depends on the base utilization: %+v from base 0.8, %+v from base 0.4", at, from)
	}
}
