package energy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOracleMatchesEnergy(t *testing.T) {
	s := NewSolarModel(3)
	o := NewOracle(s)
	for _, iv := range [][2]float64{{0, 10}, {5.5, 97.25}, {100, 100}} {
		if got, want := o.PredictEnergy(iv[0], iv[1]), Energy(s, iv[0], iv[1]); got != want {
			t.Fatalf("oracle(%v,%v) = %v, want %v", iv[0], iv[1], got, want)
		}
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(0.3)
	for k := 0; k < 200; k++ {
		e.Observe(float64(k), 4.0)
	}
	if got := e.PredictEnergy(200, 210); math.Abs(got-40) > 1e-9 {
		t.Fatalf("EWMA prediction = %v, want 40", got)
	}
}

func TestEWMAFirstObservationSeeds(t *testing.T) {
	e := NewEWMA(0.1)
	e.Observe(0, 8)
	if got := e.PredictEnergy(1, 2); math.Abs(got-8) > 1e-12 {
		t.Fatalf("after one observation prediction = %v, want 8", got)
	}
}

func TestEWMARecencyWeighting(t *testing.T) {
	e := NewEWMA(0.5)
	for k := 0; k < 50; k++ {
		e.Observe(float64(k), 1)
	}
	for k := 50; k < 60; k++ {
		e.Observe(float64(k), 10)
	}
	// After 10 steps at alpha=0.5, estimate must be within 1% of 10.
	got := e.PredictEnergy(60, 61)
	if got < 9.9 || got > 10 {
		t.Fatalf("EWMA after regime change = %v, want ~10", got)
	}
}

func TestEWMAValidation(t *testing.T) {
	for _, a := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("alpha %v did not panic", a)
				}
			}()
			NewEWMA(a)
		}()
	}
}

func TestSlotEWMALearnsProfile(t *testing.T) {
	// Square-wave source with period 10: power 8 on [0,5), 2 on [5,10).
	m := NewTwoMode(8, 2, 10, 5)
	p := NewSlotEWMA(10, 10, 0.5)
	for k := 0; k < 300; k++ {
		p.Observe(float64(k), m.PowerAt(float64(k)))
	}
	// Predict across one full future period: 8*5 + 2*5 = 50.
	got := p.PredictEnergy(300, 310)
	if math.Abs(got-50) > 0.5 {
		t.Fatalf("slot prediction over a period = %v, want ~50", got)
	}
	// Day-only window.
	got = p.PredictEnergy(300, 305)
	if math.Abs(got-40) > 0.5 {
		t.Fatalf("slot prediction over day half = %v, want ~40", got)
	}
}

func TestSlotEWMAUnseenSlotsFallBack(t *testing.T) {
	p := NewSlotEWMA(10, 10, 0.5)
	// Observe only the first two slots.
	p.Observe(0, 6)
	p.Observe(1, 6)
	// Unseen slot must use the mean of seen slots (6), not zero.
	got := p.PredictEnergy(7, 8)
	if math.Abs(got-6) > 1e-9 {
		t.Fatalf("unseen-slot prediction = %v, want 6", got)
	}
}

func TestSlotEWMAEmptyPredictsZero(t *testing.T) {
	p := NewSlotEWMA(10, 5, 0.5)
	if got := p.PredictEnergy(0, 10); got != 0 {
		t.Fatalf("empty slot predictor returned %v", got)
	}
}

func TestMovingAverageWindow(t *testing.T) {
	m := NewMovingAverage(3)
	m.Observe(0, 3)
	m.Observe(1, 6)
	if got := m.PredictEnergy(2, 3); math.Abs(got-4.5) > 1e-12 {
		t.Fatalf("partial-window mean prediction = %v, want 4.5", got)
	}
	m.Observe(2, 9)
	m.Observe(3, 12) // evicts the 3
	if got := m.PredictEnergy(4, 5); math.Abs(got-9) > 1e-12 {
		t.Fatalf("full-window mean prediction = %v, want 9", got)
	}
}

func TestMovingAverageEmpty(t *testing.T) {
	m := NewMovingAverage(4)
	if got := m.PredictEnergy(0, 5); got != 0 {
		t.Fatalf("empty moving average predicted %v", got)
	}
}

func TestLastValue(t *testing.T) {
	l := NewLastValue()
	if got := l.PredictEnergy(0, 4); got != 0 {
		t.Fatalf("unseeded last-value predicted %v", got)
	}
	l.Observe(0, 2)
	l.Observe(1, 7)
	if got := l.PredictEnergy(2, 4); math.Abs(got-14) > 1e-12 {
		t.Fatalf("last-value prediction = %v, want 14", got)
	}
}

func TestZeroPredictor(t *testing.T) {
	var z Zero
	z.Observe(0, 100)
	if got := z.PredictEnergy(0, 1000); got != 0 {
		t.Fatalf("zero predictor returned %v", got)
	}
}

func TestPredictorsNonNegativeProperty(t *testing.T) {
	src := NewSolarModel(17)
	preds := []Predictor{
		NewOracle(src), NewEWMA(0.2), NewSlotEWMA(EnvelopePeriod, 64, 0.3),
		NewMovingAverage(20), NewLastValue(), Zero{},
	}
	for k := 0; k < 500; k++ {
		p := src.PowerAt(float64(k))
		for _, pr := range preds {
			pr.Observe(float64(k), p)
		}
	}
	f := func(a, b uint16) bool {
		t1 := 500 + float64(a%1000)/4
		t2 := t1 + float64(b%400)/4
		for _, pr := range preds {
			if pr.PredictEnergy(t1, t2) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPredictEnergyPanicsOnInvertedInterval(t *testing.T) {
	preds := []Predictor{NewEWMA(0.5), NewSlotEWMA(10, 4, 0.5), NewMovingAverage(2), NewLastValue(), Zero{}}
	for _, pr := range preds {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%T did not panic on inverted interval", pr)
				}
			}()
			pr.PredictEnergy(5, 1)
		}()
	}
}

// Predictor accuracy on the paper's source: oracle is exact; EWMA tracks
// within a factor that beats Zero; this guards against regressions that
// would silently distort the scheduling experiments.
func TestPredictorAccuracyOrdering(t *testing.T) {
	src := NewSolarModel(77)
	oracle := NewOracle(src)
	ewma := NewEWMA(0.2)
	var zero Zero

	const warmup = 2000
	for k := 0; k < warmup; k++ {
		p := src.PowerAt(float64(k))
		ewma.Observe(float64(k), p)
	}
	var errEWMA, errZero float64
	for k := warmup; k < warmup+2000; k++ {
		tt := float64(k)
		truth := Energy(src, tt, tt+50)
		errEWMA += math.Abs(ewma.PredictEnergy(tt, tt+50) - truth)
		errZero += math.Abs(zero.PredictEnergy(tt, tt+50) - truth)
		ewma.Observe(tt, src.PowerAt(tt))
		if o := oracle.PredictEnergy(tt, tt+50); o != truth {
			t.Fatalf("oracle not exact at t=%v", tt)
		}
	}
	if errEWMA >= errZero {
		t.Fatalf("EWMA error %v not better than Zero error %v", errEWMA, errZero)
	}
}
