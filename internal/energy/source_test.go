package energy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSolarModelDeterministic(t *testing.T) {
	a := NewSolarModel(42)
	b := NewSolarModel(42)
	for k := 0; k < 1000; k++ {
		if a.PowerAt(float64(k)) != b.PowerAt(float64(k)) {
			t.Fatalf("same-seed solar traces diverge at t=%d", k)
		}
	}
}

func TestSolarModelMemoized(t *testing.T) {
	s := NewSolarModel(7)
	// Query out of order; the trace must be a pure function of t.
	late := s.PowerAt(500.3)
	early := s.PowerAt(3.7)
	if s.PowerAt(500.9) != late {
		t.Fatal("PowerAt not constant within unit interval")
	}
	if s.PowerAt(3.1) != early {
		t.Fatal("re-query of earlier interval changed value")
	}
}

func TestSolarModelNonNegativeBounded(t *testing.T) {
	s := NewSolarModel(1)
	for k := 0; k < 5000; k++ {
		p := s.PowerAt(float64(k))
		if p < 0 {
			t.Fatalf("solar power %v < 0 at t=%d", p, k)
		}
		// |N| beyond 6 sigma is essentially impossible in 5000 draws.
		if p > 10*6 {
			t.Fatalf("solar power %v implausibly large at t=%d", p, k)
		}
	}
}

func TestSolarModelMeanPower(t *testing.T) {
	s := NewSolarModel(99)
	const horizon = 200000
	sum := 0.0
	for k := 0; k < horizon; k++ {
		sum += s.PowerAt(float64(k))
	}
	mean := sum / horizon
	want := s.MeanPower()
	if math.Abs(mean-want) > 0.05*want {
		t.Fatalf("empirical mean %v deviates >5%% from analytic %v", mean, want)
	}
}

func TestSolarEnvelopePeriodicity(t *testing.T) {
	// cos² envelope must repeat with period 70π².
	for _, tt := range []float64{0, 17.3, 123.4, 400} {
		a := Envelope(tt)
		b := Envelope(tt + EnvelopePeriod)
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("envelope not periodic: E(%v)=%v, E(+T)=%v", tt, a, b)
		}
	}
	// And it must actually dip to ~0 and rise to ~1 within one period.
	lo, hi := math.Inf(1), math.Inf(-1)
	for x := 0.0; x < EnvelopePeriod; x += 0.5 {
		e := Envelope(x)
		lo = math.Min(lo, e)
		hi = math.Max(hi, e)
	}
	if lo > 0.01 || hi < 0.99 {
		t.Fatalf("envelope range [%v, %v], want ~[0, 1]", lo, hi)
	}
}

func TestEnergyIntegratesExactly(t *testing.T) {
	// Against a constant source, Energy must be p*(t2-t1) exactly.
	c := NewConstant(3.5)
	got := Energy(c, 1.25, 7.75)
	want := 3.5 * 6.5
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Energy = %v, want %v", got, want)
	}
}

func TestEnergyPiecewiseConstant(t *testing.T) {
	tr := NewTrace([]float64{1, 2, 3, 4})
	// [0.5, 2.5]: 0.5 of sample 1 + 1.0 of sample 2 + 0.5 of sample 3.
	got := Energy(tr, 0.5, 2.5)
	want := 0.5*1 + 1.0*2 + 0.5*3
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Energy = %v, want %v", got, want)
	}
}

func TestEnergyZeroWidth(t *testing.T) {
	if e := Energy(NewConstant(5), 3, 3); e != 0 {
		t.Fatalf("zero-width Energy = %v", e)
	}
}

func TestEnergyPanicsOnInvertedInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("inverted interval did not panic")
		}
	}()
	Energy(NewConstant(1), 2, 1)
}

func TestEnergyAdditivityProperty(t *testing.T) {
	s := NewSolarModel(31)
	f := func(a, b, c uint16) bool {
		t1 := float64(a%1000) / 3
		mid := t1 + float64(b%500)/7
		t2 := mid + float64(c%500)/11
		whole := Energy(s, t1, t2)
		split := Energy(s, t1, mid) + Energy(s, mid, t2)
		return math.Abs(whole-split) <= 1e-9*(1+math.Abs(whole))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTwoMode(t *testing.T) {
	m := NewTwoMode(10, 1, 24, 12)
	if got := m.PowerAt(3); got != 10 {
		t.Fatalf("day power = %v, want 10", got)
	}
	if got := m.PowerAt(13); got != 1 {
		t.Fatalf("night power = %v, want 1", got)
	}
	if got := m.PowerAt(24 + 3); got != 10 {
		t.Fatalf("second-day power = %v, want 10", got)
	}
	if got, want := m.MeanPower(), (10.0*12+1*12)/24; got != want {
		t.Fatalf("mean = %v, want %v", got, want)
	}
}

func TestTwoModeValidation(t *testing.T) {
	cases := []func(){
		func() { NewTwoMode(-1, 0, 10, 5) },
		func() { NewTwoMode(1, 1, 0, 0) },
		func() { NewTwoMode(1, 1, 10, 11) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestTraceWraps(t *testing.T) {
	tr := NewTrace([]float64{5, 6})
	if tr.PowerAt(0.5) != 5 || tr.PowerAt(1.5) != 6 || tr.PowerAt(2.5) != 5 {
		t.Fatal("trace does not wrap around")
	}
	if tr.MeanPower() != 5.5 {
		t.Fatalf("trace mean = %v", tr.MeanPower())
	}
}

func TestTraceValidation(t *testing.T) {
	for i, samples := range [][]float64{nil, {1, -2}, {math.NaN()}, {math.Inf(1)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("trace case %d did not panic", i)
				}
			}()
			NewTrace(samples)
		}()
	}
}

func TestSolarAmplitudeScaling(t *testing.T) {
	a := NewSolarModelAmp(5, 10)
	b := NewSolarModelAmp(5, 20)
	for k := 0; k < 100; k++ {
		pa, pb := a.PowerAt(float64(k)), b.PowerAt(float64(k))
		if math.Abs(pb-2*pa) > 1e-12 {
			t.Fatalf("amplitude not linear at t=%d: %v vs %v", k, pa, pb)
		}
	}
}

// TestSolarRunawayPanicCountsNothing: a query past maxSolarSamples panics
// before realizing anything, so the realization counter must not move —
// it counts units a model generated, not units a runaway query asked for.
func TestSolarRunawayPanicCountsNothing(t *testing.T) {
	s := NewSolarModel(3)
	s.PowerAt(100)
	before := SolarRealizations()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("query past maxSolarSamples did not panic")
			}
		}()
		s.PowerAt(maxSolarSamples)
	}()
	if got := SolarRealizations(); got != before {
		t.Fatalf("runaway query counted %d unrealized units", got-before)
	}
	if got, want := s.PowerAt(100), NewSolarModel(3).PowerAt(100); got != want {
		t.Fatalf("model changed by the panicking query: PowerAt(100) = %v, want %v", got, want)
	}
}
