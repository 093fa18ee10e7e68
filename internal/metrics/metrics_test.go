package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWelfordAgainstDirect(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if w.N() != len(xs) {
		t.Fatalf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", w.Mean())
	}
	// Direct unbiased variance: sum((x-5)^2)/(n-1) = 32/7.
	if math.Abs(w.Variance()-32.0/7) > 1e-12 {
		t.Fatalf("variance = %v, want %v", w.Variance(), 32.0/7)
	}
	if math.Abs(w.StdDev()-math.Sqrt(32.0/7)) > 1e-12 {
		t.Fatalf("stddev = %v", w.StdDev())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdErr() != 0 {
		t.Fatal("empty accumulator not zero")
	}
	w.Add(3)
	if w.Mean() != 3 || w.Variance() != 0 {
		t.Fatal("single observation stats wrong")
	}
}

func TestWelfordMatchesNaiveProperty(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 2 {
			return true
		}
		var w Welford
		sum := 0.0
		for _, v := range raw {
			w.Add(float64(v))
			sum += float64(v)
		}
		mean := sum / float64(len(raw))
		var ss float64
		for _, v := range raw {
			ss += (float64(v) - mean) * (float64(v) - mean)
		}
		naiveVar := ss / float64(len(raw)-1)
		return math.Abs(w.Mean()-mean) < 1e-9 && math.Abs(w.Variance()-naiveVar) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesBasics(t *testing.T) {
	s := NewSeries(0, 2, 5)
	if s.Len() != 5 || s.TimeAt(3) != 6 {
		t.Fatalf("series shape wrong: len %d t3 %v", s.Len(), s.TimeAt(3))
	}
	for i := range s.Values {
		s.Values[i] = float64(i)
	}
	if s.Mean() != 2 {
		t.Fatalf("series mean = %v, want 2", s.Mean())
	}
}

func TestSeriesValidation(t *testing.T) {
	for i, f := range []func(){
		func() { NewSeries(0, 0, 3) },
		func() { NewSeries(0, 1, -1) },
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

func TestMissStats(t *testing.T) {
	m := MissStats{Released: 10, Finished: 7, Missed: 3}
	if m.Rate() != 0.3 {
		t.Fatalf("rate = %v", m.Rate())
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	var zero MissStats
	if zero.Rate() != 0 {
		t.Fatal("empty rate not 0")
	}
	m.Add(MissStats{Released: 10, Finished: 10})
	if m.Released != 20 || m.Missed != 3 || m.Rate() != 0.15 {
		t.Fatalf("after Add: %+v", m)
	}
	bad := MissStats{Released: 2, Finished: 2, Missed: 1}
	if bad.Check() == nil {
		t.Fatal("inconsistent tally accepted")
	}
	neg := MissStats{Released: -1}
	if neg.Check() == nil {
		t.Fatal("negative tally accepted")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 100; i++ {
		h.Add(float64(i) / 10) // 0..9.9
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	for i, c := range h.Buckets {
		if c != 10 {
			t.Fatalf("bucket %d holds %d, want 10: %v", i, c, h.Buckets)
		}
	}
	// Out-of-range samples clamp into the edge buckets.
	h.Add(-5)
	h.Add(50)
	if h.Buckets[0] != 11 || h.Buckets[9] != 11 || h.Count() != 102 {
		t.Fatalf("out-of-range samples not clamped to edge buckets: %v (count %d)", h.Buckets, h.Count())
	}
}

func TestHistogramValidation(t *testing.T) {
	for i, f := range []func(){
		func() { NewHistogram(1, 1, 4) },
		func() { NewHistogram(0, 1, 0) },
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
