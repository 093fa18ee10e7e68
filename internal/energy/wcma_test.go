package energy

import (
	"math"
	"testing"

	"github.com/eadvfs/eadvfs/internal/rng"
)

func TestWCMAValidation(t *testing.T) {
	for i, f := range []func(){
		func() { NewWCMA(0, 10, 3, 4) },
		func() { NewWCMA(10, 0, 3, 4) },
		func() { NewWCMA(10, 5, 0, 4) },
		func() { NewWCMA(10, 5, 3, 0) },
	} {
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

func TestWCMAFirstDayFallsBackToLastValue(t *testing.T) {
	w := NewWCMA(100, 10, 3, 4)
	if got := w.PredictEnergy(0, 10); got != 0 {
		t.Fatalf("unseeded prediction = %v", got)
	}
	w.Observe(0, 6)
	if got := w.PredictEnergy(1, 3); math.Abs(got-12) > 1e-9 {
		t.Fatalf("first-day prediction = %v, want 12 (last value)", got)
	}
}

func TestWCMALearnsPeriodicProfile(t *testing.T) {
	// Square day: 8 during the first half, 2 during the second.
	day := 100.0
	src := NewTwoMode(8, 2, day, day/2)
	w := NewWCMA(day, 20, 4, 5)
	for k := 0; k < 5*int(day); k++ {
		w.Observe(float64(k), src.PowerAt(float64(k)))
	}
	// Next day's first half.
	got := w.PredictEnergy(500, 550)
	if math.Abs(got-400) > 40 {
		t.Fatalf("day-half prediction = %v, want ~400", got)
	}
	// Whole next day: 8*50 + 2*50 = 500.
	got = w.PredictEnergy(500, 600)
	if math.Abs(got-500) > 50 {
		t.Fatalf("full-day prediction = %v, want ~500", got)
	}
}

func TestWCMAConditionsOnCloudyDay(t *testing.T) {
	// Three clear days at power 10, then a 30%-power day: after observing
	// a cloudy morning, the afternoon forecast must scale down.
	day := 100.0
	w := NewWCMA(day, 10, 3, 5)
	for k := 0; k < 3*int(day); k++ {
		w.Observe(float64(k), 10)
	}
	clear := w.PredictEnergy(350, 400)
	for k := 3 * int(day); k < 3*int(day)+50; k++ {
		w.Observe(float64(k), 3)
	}
	cloudy := w.PredictEnergy(350, 400)
	if cloudy >= clear*0.7 {
		t.Fatalf("conditioning failed: clear %v, cloudy %v", clear, cloudy)
	}
	// And the ratio is bounded by GapMin.
	if cloudy < clear*w.GapMin-1e-9 {
		t.Fatalf("gap fell below GapMin: %v vs %v", cloudy, clear*w.GapMin)
	}
}

func TestWCMANonNegativeAndStable(t *testing.T) {
	w := NewWCMA(EnvelopePeriod, 48, 4, 8)
	src := NewSolarModel(5)
	for k := 0; k < 4000; k++ {
		w.Observe(float64(k), src.PowerAt(float64(k)))
	}
	r := rng.New(3)
	for i := 0; i < 500; i++ {
		t1 := 4000 + r.Uniform(0, 500)
		t2 := t1 + r.Uniform(0, 200)
		p := w.PredictEnergy(t1, t2)
		if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("prediction %v for [%v, %v]", p, t1, t2)
		}
		// Bounded by GapMax times a generous profile ceiling.
		if p > 3*20*(t2-t1)+1 {
			t.Fatalf("prediction %v implausibly large", p)
		}
	}
}

func TestWCMABeatsSlotEWMAOnConditionedDays(t *testing.T) {
	// Alternating clear (x1.0) and dim (x0.4) days over a square profile:
	// conditioning should track the day type where the plain slot profile
	// averages across both.
	day := 200.0
	base := NewTwoMode(10, 1, day, day/2)
	factor := func(d int) float64 {
		if d%2 == 0 {
			return 1.0
		}
		return 0.4
	}
	wcma := NewWCMA(day, 20, 6, 6)
	slot := NewSlotEWMA(day, 20, 0.3)
	power := func(t float64) float64 {
		return base.PowerAt(t) * factor(int(t/day))
	}
	var errW, errS float64
	for k := 0; k < 12*int(day); k++ {
		tt := float64(k)
		if k > 6*int(day) && k%7 == 0 { // measure during later days
			horizon := 30.0
			truth := 0.0
			for u := 0; u < int(horizon); u++ {
				truth += power(tt + float64(u))
			}
			errW += math.Abs(wcma.PredictEnergy(tt, tt+horizon) - truth)
			errS += math.Abs(slot.PredictEnergy(tt, tt+horizon) - truth)
		}
		p := power(tt)
		wcma.Observe(tt, p)
		slot.Observe(tt, p)
	}
	if errW >= errS {
		t.Fatalf("WCMA error %v not better than SlotEWMA %v on conditioned days", errW, errS)
	}
}

func TestWCMAInvertedIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewWCMA(10, 5, 3, 4).PredictEnergy(5, 1)
}
