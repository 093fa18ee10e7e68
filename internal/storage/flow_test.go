package storage

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFlowNetCharge(t *testing.T) {
	s := New(100, 10)
	delivered, overflow := s.Flow(5, 2, 4) // net +3 for 4 units
	if delivered != 8 || overflow != 0 {
		t.Fatalf("delivered=%v overflow=%v", delivered, overflow)
	}
	if math.Abs(s.Level()-22) > 1e-12 {
		t.Fatalf("level = %v, want 22", s.Level())
	}
}

func TestFlowNetDrainToExactEmpty(t *testing.T) {
	s := New(100, 12)
	tte := s.TimeToEmpty(1, 4) // net -3 → 4 units
	if tte != 4 {
		t.Fatalf("TimeToEmpty = %v, want 4", tte)
	}
	delivered, _ := s.Flow(1, 4, tte)
	if delivered != 16 {
		t.Fatalf("delivered = %v, want 16", delivered)
	}
	if math.Abs(s.Level()) > 1e-9 {
		t.Fatalf("level = %v, want 0", s.Level())
	}
}

func TestFlowPanicsOnMidIntervalEmpty(t *testing.T) {
	s := New(100, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Flow past empty did not panic")
		}
	}()
	s.Flow(0, 4, 1) // needs 4, has 2
}

func TestFlowOverflowExact(t *testing.T) {
	s := New(10, 8)
	// net +3/unit for 2 units → path hits cap at t=2/3, overflow 6-2=4.
	_, overflow := s.Flow(3, 0, 2)
	if math.Abs(overflow-4) > 1e-12 {
		t.Fatalf("overflow = %v, want 4", overflow)
	}
	if s.Level() != 10 {
		t.Fatalf("level = %v, want pinned at 10", s.Level())
	}
}

func TestFlowPinnedAtCapWithLoad(t *testing.T) {
	s := NewIdeal(10)
	// ps 5, pc 2: store pinned, net 3/unit overflows.
	delivered, overflow := s.Flow(5, 2, 4)
	if delivered != 8 {
		t.Fatalf("delivered = %v", delivered)
	}
	if math.Abs(overflow-12) > 1e-12 {
		t.Fatalf("overflow = %v, want 12", overflow)
	}
	if s.Level() != 10 {
		t.Fatalf("level = %v", s.Level())
	}
}

func TestFlowZeroDt(t *testing.T) {
	s := New(10, 5)
	d, o := s.Flow(3, 2, 0)
	if d != 0 || o != 0 || s.Level() != 5 {
		t.Fatal("zero-dt flow changed state")
	}
}

func TestTimeToEmptyFull(t *testing.T) {
	s := New(100, 30)
	if got := s.TimeToEmpty(5, 2); !math.IsInf(got, 1) {
		t.Fatalf("TimeToEmpty charging = %v, want +Inf", got)
	}
	empty := New(10, 0)
	if got := empty.TimeToEmpty(0, 1); got != 0 {
		t.Fatalf("TimeToEmpty already empty = %v, want 0", got)
	}
}

func TestFlowValidation(t *testing.T) {
	s := New(10, 5)
	for i, f := range []func(){
		func() { s.Flow(-1, 0, 1) },
		func() { s.Flow(0, -1, 1) },
		func() { s.Flow(0, 0, -1) },
		func() { s.Flow(math.NaN(), 0, 1) },
		func() { s.TimeToEmpty(-1, 0) },
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

// Property: Flow conserves energy and respects bounds for arbitrary safe
// sequences of flows.
func TestFlowConservationProperty(t *testing.T) {
	f := func(capRaw uint16, ops []struct{ Ps, Pc, Dt uint8 }) bool {
		capacity := 10 + float64(capRaw%1000)
		s := New(capacity, capacity/2)
		if len(ops) > 100 {
			ops = ops[:100]
		}
		for _, o := range ops {
			ps := float64(o.Ps) / 16
			pc := float64(o.Pc) / 16
			dt := float64(o.Dt) / 64
			// Split at the empty crossing like the engine does.
			tte := s.TimeToEmpty(ps, pc)
			if dt >= tte {
				s.Flow(ps, pc, tte)
				// stalled: load off for the remainder
				s.Flow(ps, 0, dt-tte)
			} else {
				s.Flow(ps, pc, dt)
			}
			if s.Level() < -1e-9 || s.Level() > capacity+1e-9 {
				return false
			}
		}
		return math.Abs(s.ConservationError(capacity/2)) < 1e-6*(1+s.Meters().Harvested)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Flow in one call equals Flow split at any midpoint (linearity),
// absent cap/empty crossings.
func TestFlowSplitEquivalenceProperty(t *testing.T) {
	f := func(psRaw, pcRaw, dtRaw, splitRaw uint8) bool {
		ps := float64(psRaw) / 32
		pc := float64(pcRaw) / 32
		dt := 0.1 + float64(dtRaw)/64
		split := dt * float64(splitRaw) / 256

		mk := func() *Store { return New(1e6, 1000) } // huge: no crossings
		a := mk()
		a.Flow(ps, pc, dt)
		b := mk()
		b.Flow(ps, pc, split)
		b.Flow(ps, pc, dt-split)
		return math.Abs(a.Level()-b.Level()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
