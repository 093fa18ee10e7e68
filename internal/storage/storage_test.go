package storage

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewIdealStartsFull(t *testing.T) {
	s := NewIdeal(100)
	if s.Level() != 100 || s.Capacity() != 100 {
		t.Fatalf("ideal store: level=%v cap=%v", s.Level(), s.Capacity())
	}
}

func TestHarvestOverflow(t *testing.T) {
	s := New(10, 8)
	_, over := s.Flow(5, 0, 1)
	if s.Level() != 10 {
		t.Fatalf("level = %v, want 10", s.Level())
	}
	if over != 3 {
		t.Fatalf("overflow = %v, want 3", over)
	}
	m := s.Meters()
	if m.Harvested != 5 || m.Stored != 2 || m.Overflow != 3 {
		t.Fatalf("meters = %+v", m)
	}
}

func TestHarvestIntoFullStoreDiscardsAll(t *testing.T) {
	s := NewIdeal(10)
	if _, over := s.Flow(4, 0, 1); over != 4 {
		t.Fatalf("overflow = %v, want 4", over)
	}
}

func TestDrawPartialWhenEmptying(t *testing.T) {
	s := New(10, 3)
	got := s.Draw(5)
	if got != 3 {
		t.Fatalf("delivered = %v, want 3", got)
	}
	if s.Level() != 0 {
		t.Fatalf("store not empty after over-draw, level %v", s.Level())
	}
}

func TestDrawZero(t *testing.T) {
	s := New(10, 5)
	if got := s.Draw(0); got != 0 {
		t.Fatalf("Draw(0) = %v", got)
	}
	if s.Level() != 5 {
		t.Fatalf("Draw(0) changed level to %v", s.Level())
	}
}

func TestInfiniteCapacity(t *testing.T) {
	s := New(math.Inf(1), 50)
	if _, over := s.Flow(1e12, 0, 1); over != 0 {
		t.Fatalf("infinite store overflowed %v", over)
	}
	if s.Level() != 50+1e12 {
		t.Fatalf("infinite store level = %v, want %v", s.Level(), 50+1e12)
	}
	if got := s.Draw(1e6); got != 1e6 {
		t.Fatalf("infinite store delivered %v", got)
	}
	if got := s.ConservationError(50); got != 0 {
		t.Fatalf("infinite store conservation error = %v, want 0", got)
	}
}

func TestValidation(t *testing.T) {
	cases := []func(){
		func() { New(-1, 0) },
		func() { New(10, -1) },
		func() { New(10, 11) },
		func() { New(10, math.NaN()) },
		func() { New(10, 5).Draw(-1) },
		func() { New(10, 5).Draw(math.NaN()) },
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

// Property: under any interleaving of flows (split at the empty crossing
// like the engine does) and instantaneous draws the level stays within
// [0, C] and energy is conserved.
func TestInvariantsProperty(t *testing.T) {
	type op struct {
		Kind   uint8
		Ps, Pc uint8
		Amt    uint16
	}
	f := func(capRaw uint16, initFrac uint8, ops []op) bool {
		capacity := 1 + float64(capRaw%5000)
		initial := capacity * float64(initFrac) / 255
		s := New(capacity, initial)
		if len(ops) > 300 {
			ops = ops[:300]
		}
		for _, o := range ops {
			amt := float64(o.Amt) / 16
			if o.Kind%2 == 0 {
				s.Draw(amt)
			} else {
				ps, pc, dt := float64(o.Ps)/8, float64(o.Pc)/8, amt/64
				if tte := s.TimeToEmpty(ps, pc); dt >= tte {
					s.Flow(ps, pc, tte)
					s.Flow(ps, 0, dt-tte)
				} else {
					s.Flow(ps, pc, dt)
				}
			}
			if s.Level() < -1e-9 || s.Level() > capacity+1e-9 {
				return false
			}
		}
		return math.Abs(s.ConservationError(initial)) < 1e-6*(1+initial+s.Meters().Harvested)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a pure harvest splits exactly into stored energy and overflow.
func TestHarvestPartitionProperty(t *testing.T) {
	f := func(capRaw, lvlRaw, amtRaw uint16) bool {
		capacity := 1 + float64(capRaw%1000)
		level := math.Min(float64(lvlRaw%1000), capacity)
		s := New(capacity, level)
		amt := float64(amtRaw) / 8
		_, over := s.Flow(amt, 0, 1)
		m := s.Meters()
		return math.Abs(m.Stored+over-amt) < 1e-9 && over >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestConservationIdeal(t *testing.T) {
	s := New(100, 60)
	s.Flow(30, 0, 1)
	s.Draw(45)
	s.Flow(80, 0, 1) // overflows
	s.Draw(10)
	if err := s.ConservationError(60); math.Abs(err) > 1e-9 {
		t.Fatalf("conservation error = %v", err)
	}
	if m := s.Meters(); m.Leaked != 0 {
		t.Fatalf("ideal store leaked %v", m.Leaked)
	}
}
