package fault

import (
	"fmt"
	"math"
	"testing"

	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/rng"
	"github.com/eadvfs/eadvfs/internal/storage"
)

// hostile is the intensity-1 spec: the densest windows and the largest
// magnitudes, so every injector strikes a short test horizon many times.
func hostile(seed uint64) Spec { return Spec{Seed: seed, Intensity: 1} }

func mustSet(t *testing.T, spec Spec) *Set {
	t.Helper()
	s, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s == nil {
		t.Fatal("positive intensity produced nil set")
	}
	return s
}

// New refuses an intensity outside [0, 1], NaN, and a positive intensity
// so small that its mean window gaps overflow; every other intensity
// builds a set with every injector on.
func TestSpecValidate(t *testing.T) {
	for _, x := range []float64{math.NaN(), -0.1, 1.5, math.Inf(1), math.Inf(-1), 1e-310} {
		if s, err := New(Spec{Seed: 1, Intensity: x}); err == nil || s != nil {
			t.Fatalf("intensity %v: got (%v, %v), want an error", x, s, err)
		}
	}
	for _, x := range []float64{1e-300, 0.05, 0.5, 1} {
		s := mustSet(t, Spec{Seed: 1, Intensity: x})
		if !(s.fadeRate > 0 && s.leakSpikeRate > 0 && s.overrunProb > 0 && s.overrunMax > 0) {
			t.Fatalf("intensity %v: an injector is off: %+v", x, s)
		}
		if !(s.dropFactor >= 0 && s.dropFactor < 1 && s.fadeLimit < 1 && s.overrunProb <= 1) {
			t.Fatalf("intensity %v: a fraction is out of range: %+v", x, s)
		}
	}
}

func TestDisabledSpecIsNilSet(t *testing.T) {
	for _, spec := range []Spec{{}, {Seed: 99}} {
		s, err := New(spec)
		if err != nil || s != nil {
			t.Fatalf("New(%+v) = (%v, %v), want (nil, nil)", spec, s, err)
		}
	}
	var s *Set
	// nil-Set methods must all pass through.
	if f := s.OverrunFactor(3, 7); f != 1 {
		t.Fatalf("nil set overrun factor %v", f)
	}
	if lv := s.DVFSLevel(10, 2, 5); lv != 5 {
		t.Fatalf("nil set DVFS level %d, want requested 5", lv)
	}
	src := energy.NewConstant(2)
	if got := s.WrapSource(src); got != energy.Source(src) {
		t.Fatal("nil set wrapped the source")
	}
	st := storage.NewIdeal(100)
	if got := s.WrapStore(st); got != storage.Reservoir(st) {
		t.Fatal("nil set wrapped the store")
	}
	pred := energy.NewLastValue()
	if got := s.WrapPredictor(pred); got != energy.Predictor(pred) {
		t.Fatal("nil set wrapped the predictor")
	}
	if d := s.Counters(); d.Any() {
		t.Fatalf("nil set counters %+v", d)
	}
	s.FinishAt(100) // must not panic
	s.AddOverrunWork(1)
}

// Severity scales with intensity: duty cycles and magnitudes grow, and
// the brown-out factor falls to a full dropout at intensity 1.
func TestIntensityScalesSeverity(t *testing.T) {
	lo, hi := mustSet(t, Spec{Seed: 7, Intensity: 0.2}), mustSet(t, Spec{Seed: 7, Intensity: 0.9})
	for _, w := range []struct {
		name   string
		lo, hi *windows
	}{
		{"dropout", lo.dropout, hi.dropout}, {"leak-spike", lo.leakSpike, hi.leakSpike},
		{"dvfs-stuck", lo.dvfsStuck, hi.dvfsStuck}, {"blackout", lo.blackout, hi.blackout},
	} {
		if w.lo.dutyCycle() >= w.hi.dutyCycle() {
			t.Fatalf("%s duty cycle not increasing in intensity", w.name)
		}
	}
	if lo.overrunProb >= hi.overrunProb || lo.overrunMax >= hi.overrunMax ||
		lo.leakSpikeRate >= hi.leakSpikeRate || lo.fadeRate >= hi.fadeRate || lo.fadeLimit >= hi.fadeLimit {
		t.Fatal("fault magnitudes not increasing in intensity")
	}
	if lo.dropFactor <= hi.dropFactor || mustSet(t, hostile(7)).dropFactor != 0 {
		t.Fatal("drop factor not falling to a full dropout")
	}
}

// Every injector parameter is pinned bit for bit at nine intensities, in
// the order dropout gap and length, drop factor, fade rate and limit,
// leak-spike gap, length and rate, DVFS-stuck gap and length, blackout
// gap and length, overrun probability and maximum. A change in how they
// derive from the intensity, down to one rounding step, fails here even
// where a run's outcome absorbs it.
func TestDerivationPinned(t *testing.T) {
	for x, want := range map[float64]string{
		0.05: "[0x1.f4p+11 0x1.7333333333333p+01 0x1.851eb851eb852p-03 0x1.4f8b588e368f1p-19 0x1.999999999999ap-06 0x1.77p+11 0x1.2666666666666p+02 0x1.999999999999ap-04 0x1.388p+12 0x1.8p+02 0x1.f4p+10 0x1.ccccccccccccdp+01 0x1.eb851eb851eb8p-07 0x1.999999999999ap-06]",
		0.1:  "[0x1.f4p+10 0x1.e666666666666p+01 0x1.70a3d70a3d70bp-03 0x1.4f8b588e368f1p-18 0x1.999999999999ap-05 0x1.77p+10 0x1.4cccccccccccdp+02 0x1.999999999999ap-03 0x1.388p+11 0x1.cp+02 0x1.f4p+09 0x1.0cccccccccccdp+02 0x1.eb851eb851eb8p-06 0x1.999999999999ap-05]",
		0.25: "[0x1.9p+09 0x1.ap+02 0x1.3333333333334p-03 0x1.a36e2eb1c432dp-17 0x1p-03 0x1.2cp+09 0x1.cp+02 0x1p-01 0x1.f4p+09 0x1.4p+03 0x1.9p+08 0x1.8p+02 0x1.3333333333333p-04 0x1p-03]",
		0.3:  "[0x1.4d55555555556p+09 0x1.d999999999999p+02 0x1.1eb851eb851ebp-03 0x1.f75104d551d69p-17 0x1.3333333333333p-03 0x1.f4p+08 0x1.e666666666666p+02 0x1.3333333333333p-01 0x1.a0aaaaaaaaaabp+09 0x1.6p+03 0x1.4d55555555556p+08 0x1.a666666666666p+02 0x1.70a3d70a3d70ap-04 0x1.3333333333333p-03]",
		0.5:  "[0x1.9p+08 0x1.6p+03 0x1.999999999999ap-04 0x1.a36e2eb1c432dp-16 0x1p-02 0x1.2cp+08 0x1.4p+03 0x1p+00 0x1.f4p+08 0x1.ep+03 0x1.9p+07 0x1.2p+03 0x1.3333333333333p-03 0x1p-02]",
		0.7:  "[0x1.1db6db6db6db7p+08 0x1.d333333333333p+03 0x1.eb851eb851ebap-05 0x1.2599ed7c6fbd2p-15 0x1.6666666666666p-02 0x1.ac92492492493p+07 0x1.8ccccccccccccp+03 0x1.6666666666666p+00 0x1.6524924924925p+08 0x1.3p+04 0x1.1db6db6db6db7p+07 0x1.6ccccccccccccp+03 0x1.ae147ae147ae1p-03 0x1.6666666666666p-02]",
		0.75: "[0x1.0aaaaaaaaaaabp+08 0x1.fp+03 0x1.999999999999ap-05 0x1.3a92a30553262p-15 0x1.8p-02 0x1.9p+07 0x1.ap+03 0x1.8p+00 0x1.4d55555555555p+08 0x1.4p+04 0x1.0aaaaaaaaaaabp+07 0x1.8p+03 0x1.cccccccccccccp-03 0x1.8p-02]",
		0.9:  "[0x1.bc71c71c71c72p+07 0x1.2333333333333p+04 0x1.47ae147ae147ap-06 0x1.797cc39ffd60fp-15 0x1.ccccccccccccdp-02 0x1.4d55555555555p+07 0x1.d99999999999ap+03 0x1.ccccccccccccdp+00 0x1.15c71c71c71c7p+08 0x1.7p+04 0x1.bc71c71c71c72p+06 0x1.b99999999999ap+03 0x1.147ae147ae148p-02 0x1.ccccccccccccdp-02]",
		1:    "[0x1.9p+07 0x1.4p+04 0x0p+00 0x1.a36e2eb1c432dp-15 0x1p-01 0x1.2cp+07 0x1p+04 0x1p+01 0x1.f4p+07 0x1.9p+04 0x1.9p+06 0x1.ep+03 0x1.3333333333333p-02 0x1p-01]",
	} {
		s := mustSet(t, Spec{Seed: 1, Intensity: x})
		got := fmt.Sprintf("%x", []float64{
			s.dropout.meanGap, s.dropout.meanLen, s.dropFactor, s.fadeRate, s.fadeLimit,
			s.leakSpike.meanGap, s.leakSpike.meanLen, s.leakSpikeRate,
			s.dvfsStuck.meanGap, s.dvfsStuck.meanLen, s.blackout.meanGap, s.blackout.meanLen,
			s.overrunProb, s.overrunMax})
		if got != want {
			t.Errorf("intensity %v:\n got %s\nwant %s", x, got, want)
		}
	}
}

// Table-driven determinism check per injector: the same seed must yield
// the identical window schedule, and queries must be order-independent
// (the oracle predictor probes future times before the engine gets there).
func TestWindowScheduleDeterminism(t *testing.T) {
	pick := func(s *Set) map[string]*windows {
		return map[string]*windows{
			"dropout":    s.dropout,
			"leak-spike": s.leakSpike,
			"dvfs-stuck": s.dvfsStuck,
			"blackout":   s.blackout,
		}
	}
	const horizon = 2000.0
	for name := range pick(mustSet(t, hostile(1))) {
		name := name
		t.Run(name, func(t *testing.T) {
			a := pick(mustSet(t, hostile(42)))[name]
			b := pick(mustSet(t, hostile(42)))[name]
			c := pick(mustSet(t, hostile(43)))[name]

			// a queried sequentially, b queried out of order first.
			b.active(horizon / 2)
			b.overlap(0, horizon)
			var diverged bool
			for k := 0.0; k < horizon; k++ {
				av, bv := a.active(k), b.active(k)
				if av != bv {
					t.Fatalf("seed-42 schedules disagree at t=%g (%v vs %v)", k, av, bv)
				}
				if av != c.active(k) {
					diverged = true
				}
			}
			if !diverged {
				t.Fatal("different seeds produced the identical schedule")
			}
			if a.overlap(0, horizon) != b.overlap(0, horizon) {
				t.Fatal("overlap disagrees between identically seeded schedules")
			}
			// Windows are unit-aligned with ≥1-unit gaps and lengths, so
			// the piecewise-constant source contract holds.
			for i, sp := range a.spans {
				if sp.start != math.Trunc(sp.start) || sp.end != math.Trunc(sp.end) {
					t.Fatalf("span %d = %+v not unit-aligned", i, sp)
				}
				if sp.end-sp.start < 1 {
					t.Fatalf("span %d shorter than a unit: %+v", i, sp)
				}
				if i > 0 && sp.start-a.spans[i-1].end < 1 {
					t.Fatalf("gap before span %d shorter than a unit", i)
				}
			}
			if a.overlap(0, horizon) <= 0 {
				t.Fatal("dense schedule produced no window time")
			}
		})
	}
}

// Overrun draws are a pure function of (seed, task, seq) — independent of
// the order jobs arrive in, which is what keeps faulted runs seed-stable
// across scheduling differences.
func TestOverrunDeterminism(t *testing.T) {
	a := mustSet(t, hostile(42))
	b := mustSet(t, hostile(42))

	type key struct{ task, seq int }
	got := map[key]float64{}
	for task := 1; task <= 5; task++ {
		for seq := 0; seq < 50; seq++ {
			got[key{task, seq}] = a.OverrunFactor(task, seq)
		}
	}
	// b draws in reverse order; every factor must match a's.
	overruns := 0
	for task := 5; task >= 1; task-- {
		for seq := 49; seq >= 0; seq-- {
			f := b.OverrunFactor(task, seq)
			if f != got[key{task, seq}] {
				t.Fatalf("task %d seq %d: %v vs %v (order-dependent draw)", task, seq, f, got[key{task, seq}])
			}
			if f < 1 || f > 1+b.overrunMax {
				t.Fatalf("factor %v outside [1, %v]", f, 1+b.overrunMax)
			}
			if f > 1 {
				overruns++
			}
		}
	}
	if overruns == 0 || overruns == 250 {
		t.Fatalf("%d/250 overruns — probability not acting", overruns)
	}
	if a.Counters().Overruns != b.Counters().Overruns {
		t.Fatal("overrun counters diverged")
	}
}

func TestFlakySourceDropout(t *testing.T) {
	spec := Spec{Seed: 42, Intensity: 0.5} // a brown-out, not a full dropout
	set := mustSet(t, spec)
	inner := energy.NewConstant(4)
	src := set.WrapSource(inner)

	in, out := 0, 0
	for k := 0.0; k < 2000; k++ {
		p := src.PowerAt(k)
		if set.dropout.active(k) {
			in++
			if want := 4 * set.dropFactor; p != want {
				t.Fatalf("t=%g: dropout power %v, want %v", k, p, want)
			}
		} else {
			out++
			if p != 4 {
				t.Fatalf("t=%g: nominal power %v, want 4", k, p)
			}
		}
	}
	if in == 0 || out == 0 {
		t.Fatalf("degenerate schedule: %d in, %d out", in, out)
	}
	if src.MeanPower() >= inner.MeanPower() {
		t.Fatal("flaky mean power not reduced")
	}
	// Same seed, same wrapped trace.
	again := mustSet(t, spec).WrapSource(energy.NewConstant(4))
	for k := 0.0; k < 2000; k++ {
		if src.PowerAt(k) != again.PowerAt(k) {
			t.Fatalf("t=%g: wrapped trace not reproducible", k)
		}
	}
}

// The degraded store loses energy to spikes and fade, meters every loss
// through the inner draw path, and therefore conserves energy exactly.
func TestDegradedStoreConservesEnergy(t *testing.T) {
	spec := hostile(42)
	set := mustSet(t, spec)
	inner := storage.New(200, 200)
	st := set.WrapStore(inner)

	const initial = 200.0
	for i := 0; i < 2000; i++ {
		st.Flow(1.0, 0.8, 1.0)
	}
	d := set.Counters()
	if d.LeakSpikeEnergy <= 0 {
		t.Fatalf("no spike loss recorded: %+v", d)
	}
	if err := st.ConservationError(initial); math.Abs(err) > 1e-9*initial {
		t.Fatalf("conservation error %v", err)
	}
	if st.Capacity() >= 200 {
		t.Fatalf("capacity %v did not fade", st.Capacity())
	}
	if floor := 200 * (1 - set.fadeLimit); st.Capacity() < floor-1e-9 {
		t.Fatalf("capacity %v faded past the limit %v", st.Capacity(), floor)
	}
}

// Fade must shed stored energy that the shrunken capacity can no longer
// hold, and TimeToEmpty must stay conservative (never later than the
// inner store's own estimate under the extra drains).
func TestDegradedStoreFadeShedsExcess(t *testing.T) {
	set := mustSet(t, hostile(9))
	st := set.WrapStore(storage.New(100, 100))

	// Hold the store full; fade forces the level down with the capacity.
	for i := 0; i < 200; i++ {
		st.Flow(5, 0, 1) // surplus keeps it pinned at capacity
	}
	if lvl, cap := st.Level(), st.Capacity(); lvl > cap+1e-9 {
		t.Fatalf("level %v exceeds faded capacity %v", lvl, cap)
	}
	if set.Counters().FadeEnergy <= 0 {
		t.Fatal("no fade loss recorded")
	}
	if tte := st.TimeToEmpty(0, 1); tte > 100 {
		t.Fatalf("TimeToEmpty %v not conservative under fade", tte)
	}
}

func TestBlackoutPredictorDropsObservations(t *testing.T) {
	spec := hostile(42)
	set := mustSet(t, spec)
	inner := energy.NewLastValue()
	pred := set.WrapPredictor(inner)

	dropped := 0
	for k := 0.0; k < 1000; k++ {
		pred.Observe(k, k+1) // strictly increasing signal
		if set.blackout.active(k) {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("schedule produced no blackout units")
	}
	if got := set.Counters().StaleForecasts; got != dropped {
		t.Fatalf("StaleForecasts %d, want %d", got, dropped)
	}
	// The inner predictor must have missed the blacked-out observations:
	// its last value is the last non-blackout sample, not 1000.
	if p := pred.PredictEnergy(1000, 1001); p == 1000 && set.blackout.active(999) {
		t.Fatal("blackout failed to drop the final observation")
	}
}

func TestDVFSLevelStuck(t *testing.T) {
	set := mustSet(t, hostile(42))
	// Find one stuck window.
	var tIn, tOut float64 = -1, -1
	for k := 0.0; k < 2000; k++ {
		if set.dvfsStuck.active(k) && tIn < 0 {
			tIn = k
		}
		if !set.dvfsStuck.active(k) && tOut < 0 {
			tOut = k
		}
	}
	if tIn < 0 || tOut < 0 {
		t.Fatal("no stuck/free instants found")
	}
	if lv := set.DVFSLevel(tIn, 1, 3); lv != 1 {
		t.Fatalf("stuck window let level change: %d", lv)
	}
	if lv := set.DVFSLevel(tIn, -1, 3); lv != 3 {
		t.Fatal("stuck window blocked the first latch (current < 0)")
	}
	if lv := set.DVFSLevel(tOut, 1, 3); lv != 3 {
		t.Fatal("free instant refused the transition")
	}
	if set.Counters().DVFSClamps != 1 {
		t.Fatalf("DVFSClamps %d, want 1", set.Counters().DVFSClamps)
	}
}

// Child streams keep the injector schedules mutually independent: the
// stream constants must stay distinct (a collision would correlate two
// injectors' schedules under every seed).
func TestStreamConstantsDistinct(t *testing.T) {
	streams := []uint64{streamDropout, streamLeakSpike, streamDVFSStuck, streamBlackout, streamOverrun}
	seen := map[uint64]bool{}
	for _, s := range streams {
		if seen[s] {
			t.Fatalf("stream constant %d reused", s)
		}
		seen[s] = true
	}
	r := rng.New(1)
	if r.Child(streamDropout).Uint64() == r.Child(streamLeakSpike).Uint64() {
		t.Fatal("child streams not independent")
	}
}
