package main

import (
	"math"
	"testing"
	"time"
)

func TestCalibrationLoopParses(t *testing.T) {
	d, err := calibrateOnce()
	if err != nil {
		t.Fatalf("the calibration source does not parse: %v", err)
	}
	if d <= 0 {
		t.Errorf("calibration took %v", d)
	}
}

func TestScaleUsesNearestSamples(t *testing.T) {
	t0 := time.Unix(1000, 0)
	c := &calibrator{}
	if got := c.scale(t0); got != 1 {
		t.Errorf("scale with no samples = %v, want 1", got)
	}
	// One sample every 50 ms: the first 20 at the reference speed, the
	// next 20 twice as slow.
	for i := 0; i < 40; i++ {
		ns := float64(refCalibNs)
		if i >= 20 {
			ns *= 2
		}
		c.samples = append(c.samples, calSample{at: t0.Add(time.Duration(i) * calibPeriod), ns: ns})
	}
	for _, tc := range []struct {
		at   time.Duration
		want float64
	}{
		{-time.Second, 1},           // before every sample: the first nine
		{300 * time.Millisecond, 1}, // inside the fast half
		{1700 * time.Millisecond, 0.5},
		{10 * time.Second, 0.5},     // after every sample: the last nine
		{975 * time.Millisecond, 1}, // straddling: five fast samples of nine
		{1025 * time.Millisecond, 0.5},
	} {
		if got := c.scale(t0.Add(tc.at)); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("scale at %v = %v, want %v", tc.at, got, tc.want)
		}
	}
	scaled, raw := c.latencies([]timed{{start: t0.Add(1500 * time.Millisecond), d: 4 * time.Millisecond}})
	if raw[0] != 4 || scaled[0] != 2 {
		t.Errorf("a 4 ms op in the slow half: scaled %v raw %v, want 2 and 4", scaled[0], raw[0])
	}
}
