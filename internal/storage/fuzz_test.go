package storage

import (
	"math"
	"testing"
)

// FuzzFlow drives the paper's ideal store, the one every run uses,
// through fuzzer-chosen flow sequences (split at the empty crossing like
// the engine does) and checks the level bounds, energy conservation and
// the harvest partition (stored + overflow = harvested) — the invariants
// every experiment depends on. Runs its seed corpus under `go test`; fuzz with `go test -fuzz
// FuzzFlow ./internal/storage`.
func FuzzFlow(f *testing.F) {
	f.Add(uint16(100), byte(128), []byte{1, 2, 3, 4, 5, 6})
	f.Add(uint16(5), byte(0), []byte{255, 255, 0, 0, 9})
	f.Add(uint16(5000), byte(255), []byte{7})
	f.Fuzz(func(t *testing.T, capRaw uint16, initFrac byte, ops []byte) {
		capacity := 1 + float64(capRaw)
		initial := capacity * float64(initFrac) / 255
		s := New(capacity, initial)
		if len(ops) > 600 {
			ops = ops[:600]
		}
		for i := 0; i+2 < len(ops); i += 3 {
			ps := float64(ops[i]) / 8
			pc := float64(ops[i+1]) / 8
			dt := float64(ops[i+2]) / 32
			if tte := s.TimeToEmpty(ps, pc); dt >= tte {
				s.Flow(ps, pc, tte)
				s.Flow(ps, 0, dt-tte)
			} else {
				s.Flow(ps, pc, dt)
			}
			if s.Level() < -1e-6 || s.Level() > capacity+1e-6 {
				t.Fatalf("level %v outside [0, %v]", s.Level(), capacity)
			}
		}
		m := s.Meters()
		if err := s.ConservationError(initial); math.Abs(err) > 1e-5*(1+m.Harvested) {
			t.Fatalf("conservation error %v", err)
		}
		if d := m.Stored + m.Overflow - m.Harvested; math.Abs(d) > 1e-5*(1+m.Harvested) {
			t.Fatalf("harvest partition off by %v: %+v", d, m)
		}
	})
}
