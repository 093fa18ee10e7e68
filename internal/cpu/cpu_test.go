package cpu

import (
	"math"
	"testing"
	"testing/quick"
)

func TestXScaleShape(t *testing.T) {
	c := XScale()
	if c.Levels() != 5 {
		t.Fatalf("levels = %d, want 5", c.Levels())
	}
	wantSpeeds := []float64{0.15, 0.4, 0.6, 0.8, 1.0}
	wantPowers := []float64{0.08, 0.4, 1.0, 2.0, 3.2}
	for n := 0; n < 5; n++ {
		if math.Abs(c.Speed(n)-wantSpeeds[n]) > 1e-12 {
			t.Fatalf("speed[%d] = %v, want %v", n, c.Speed(n), wantSpeeds[n])
		}
		if c.Power(n) != wantPowers[n] {
			t.Fatalf("power[%d] = %v, want %v", n, c.Power(n), wantPowers[n])
		}
	}
	if c.MaxPower() != 3.2 || c.MaxLevel() != 4 {
		t.Fatalf("max power/level = %v/%d", c.MaxPower(), c.MaxLevel())
	}
}

func TestXScaleMilliwattsMatchesPaper(t *testing.T) {
	c := XScaleMilliwatts()
	want := []float64{80, 400, 1000, 2000, 3200}
	for n, w := range want {
		if c.Power(n) != w {
			t.Fatalf("power[%d] = %v, want %v mW", n, c.Power(n), w)
		}
	}
}

func TestSortingOnConstruction(t *testing.T) {
	c := New([]OperatingPoint{
		{FreqMHz: 1000, Power: 10},
		{FreqMHz: 250, Power: 1},
		{FreqMHz: 500, Power: 3},
	})
	if c.Speed(0) != 0.25 || c.Speed(1) != 0.5 || c.Speed(2) != 1 {
		t.Fatalf("points not sorted: speeds %v %v %v", c.Speed(0), c.Speed(1), c.Speed(2))
	}
}

func TestValidation(t *testing.T) {
	cases := []func(){
		func() { New(nil) },
		func() { New([]OperatingPoint{{FreqMHz: 0, Power: 1}}) },
		func() { New([]OperatingPoint{{FreqMHz: 100, Power: 0}}) },
		func() { New([]OperatingPoint{{FreqMHz: 100, Power: 1}, {FreqMHz: 100, Power: 2}}) },
		// dominated point: faster but cheaper would make slow point useless
		func() { New([]OperatingPoint{{FreqMHz: 100, Power: 5}, {FreqMHz: 200, Power: 3}}) },
		func() { New([]OperatingPoint{{FreqMHz: 100, Power: 1}}, WithIdlePower(-1)) },
		func() { TwoSpeed(0) },
		func() { Cubic(0, 1000, 3, 0) },
		func() { Cubic(4, 1000, 1, 2) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("validation case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestExecTimeEnergy(t *testing.T) {
	c := XScale()
	// 4 units of work at level 1 (speed 0.4): time 10, energy 0.4*10 = 4.
	if got := c.ExecTime(4, 1); math.Abs(got-10) > 1e-12 {
		t.Fatalf("ExecTime = %v, want 10", got)
	}
	if got := c.ExecEnergy(4, 1); math.Abs(got-4) > 1e-12 {
		t.Fatalf("ExecEnergy = %v, want 4", got)
	}
}

func TestMinLevelFor(t *testing.T) {
	c := XScale()
	// work 4, window 30: 4/0.15=26.7 <= 30 → level 0.
	if n, ok := c.MinLevelFor(4, 30); !ok || n != 0 {
		t.Fatalf("MinLevelFor(4,30) = %d,%v", n, ok)
	}
	// window 8: need speed >= 0.5 → level 2 (0.6).
	if n, ok := c.MinLevelFor(4, 8); !ok || n != 2 {
		t.Fatalf("MinLevelFor(4,8) = %d,%v", n, ok)
	}
	// window 4: speed 1 → max level.
	if n, ok := c.MinLevelFor(4, 4); !ok || n != 4 {
		t.Fatalf("MinLevelFor(4,4) = %d,%v", n, ok)
	}
	// infeasible window.
	if n, ok := c.MinLevelFor(4, 3.9); ok || n != c.MaxLevel() {
		t.Fatalf("MinLevelFor(4,3.9) = %d,%v, want maxlevel,false", n, ok)
	}
	// zero work.
	if n, ok := c.MinLevelFor(0, 0); !ok || n != 0 {
		t.Fatalf("MinLevelFor(0,0) = %d,%v", n, ok)
	}
	// zero window, positive work.
	if _, ok := c.MinLevelFor(1, 0); ok {
		t.Fatal("MinLevelFor(1,0) claimed feasible")
	}
}

// Property: the chosen level always satisfies ineq. (6) when feasible, and
// no lower level does.
func TestMinLevelForMinimalityProperty(t *testing.T) {
	c := XScale()
	f := func(workRaw, winRaw uint16) bool {
		work := float64(workRaw%200) / 10
		window := float64(winRaw%400) / 10
		n, ok := c.MinLevelFor(work, window)
		if !ok {
			// even fmax must fail
			return work/c.Speed(c.MaxLevel()) > window
		}
		if work > 0 && work/c.Speed(n) > window+1e-12 {
			return false
		}
		if n > 0 && work > 0 && work/c.Speed(n-1) <= window {
			return false // a lower level was feasible
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Energy per work must strictly increase with level for XScale — the
// premise that makes slowing down worthwhile.
func TestEnergyPerWorkMonotone(t *testing.T) {
	c := XScale()
	for n := 1; n < c.Levels(); n++ {
		if c.EnergyPerWork(n) <= c.EnergyPerWork(n-1) {
			t.Fatalf("energy/work not increasing at level %d: %v <= %v",
				n, c.EnergyPerWork(n), c.EnergyPerWork(n-1))
		}
	}
}

func TestTwoSpeedMatchesMotivationalExample(t *testing.T) {
	c := TwoSpeed(8)
	if c.Levels() != 2 {
		t.Fatalf("levels = %d", c.Levels())
	}
	if c.Speed(0) != 0.5 || c.Speed(1) != 1 {
		t.Fatalf("speeds %v, %v", c.Speed(0), c.Speed(1))
	}
	if math.Abs(c.Power(0)-8.0/3) > 1e-12 || c.Power(1) != 8 {
		t.Fatalf("powers %v, %v", c.Power(0), c.Power(1))
	}
	// §2 arithmetic: running w=4 at low speed takes 8 time and consumes
	// 4/(1/2) * 8/3 = 64/3 ≈ 21.33 energy; paper computes 24+8-this = 32/3.
	e := c.ExecEnergy(4, 0)
	if math.Abs(e-64.0/3) > 1e-9 {
		t.Fatalf("low-speed energy = %v, want 64/3", e)
	}
	if math.Abs((32-e)-32.0/3) > 1e-9 {
		t.Fatalf("remaining energy = %v, want 32/3", 32-e)
	}
}

func TestFig3Processor(t *testing.T) {
	c := Fig3()
	if c.Speed(0) != 0.25 || c.Power(0) != 1 || c.MaxPower() != 8 {
		t.Fatalf("fig3 = S0 %v P0 %v Pmax %v", c.Speed(0), c.Power(0), c.MaxPower())
	}
}

func TestCubicModel(t *testing.T) {
	c := Cubic(4, 1000, 3.2, 0.1)
	if c.Levels() != 4 {
		t.Fatalf("levels = %d", c.Levels())
	}
	if math.Abs(c.MaxPower()-3.2) > 1e-12 {
		t.Fatalf("pmax = %v", c.MaxPower())
	}
	// P(f) - static must scale as f^3.
	p1 := c.Power(0) - 0.1
	p4 := c.Power(3) - 0.1
	if math.Abs(p4/p1-64) > 1e-9 {
		t.Fatalf("cubic scaling: ratio = %v, want 64", p4/p1)
	}
}

func TestOptions(t *testing.T) {
	c := New([]OperatingPoint{{FreqMHz: 100, Power: 1}},
		WithIdlePower(0.05))
	if c.IdlePower() != 0.05 {
		t.Fatalf("idle = %v", c.IdlePower())
	}
}

func TestLevelBoundsPanic(t *testing.T) {
	c := XScale()
	for _, n := range []int{-1, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("level %d did not panic", n)
				}
			}()
			c.Speed(n)
		}()
	}
}

func TestPXA270Preset(t *testing.T) {
	c := PXA270()
	if c.Levels() != 6 {
		t.Fatalf("levels = %d", c.Levels())
	}
	if c.Speed(c.MaxLevel()) != 1 {
		t.Fatal("max speed not normalized to 1")
	}
	// Energy per work must still be increasing — the premise of DVFS.
	for n := 1; n < c.Levels(); n++ {
		if c.EnergyPerWork(n) <= c.EnergyPerWork(n-1) {
			t.Fatalf("energy/work not increasing at level %d", n)
		}
	}
}

func TestSensorNodeMCUPreset(t *testing.T) {
	c := SensorNodeMCU()
	if c.Levels() != 2 || c.Speed(0) != 0.5 {
		t.Fatalf("mcu profile: levels %d speed0 %v", c.Levels(), c.Speed(0))
	}
}

func TestXScaleScaled(t *testing.T) {
	c := XScaleScaled(10)
	if c.MaxPower() != 10 {
		t.Fatalf("pmax = %v", c.MaxPower())
	}
	// Relative powers preserved: level 0 is 80/3200 of max.
	if math.Abs(c.Power(0)-10*80.0/3200) > 1e-12 {
		t.Fatalf("power[0] = %v", c.Power(0))
	}
	// Speeds identical to the unscaled table.
	base := XScale()
	for n := 0; n < c.Levels(); n++ {
		if c.Speed(n) != base.Speed(n) {
			t.Fatalf("speed[%d] changed under scaling", n)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("XScaleScaled(0) did not panic")
		}
	}()
	XScaleScaled(0)
}
