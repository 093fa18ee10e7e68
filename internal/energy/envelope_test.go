package energy

import (
	"math"
	"sync"
	"testing"

	"github.com/eadvfs/eadvfs/internal/rng"
)

// envelopeHorizons straddle the first table (minEnvelopeTable = 1024
// units) and several doublings past it.
var envelopeHorizons = []int{1, 2, 1023, 1024, 1025, 10001, 70001}

const envelopeSeeds = 32

// naiveSolar realizes the first n powers of seed's eq. (13) trace with
// the envelope computed in place, the way every power was computed before
// the shared table existed.
func naiveSolar(seed uint64, n int) []float64 {
	r := rng.New(seed)
	out := make([]float64, n)
	for k := range out {
		out[k] = 10 * r.HalfNormal() * Envelope(float64(k))
	}
	return out
}

// resetEnvelopeTable empties the process-wide table so that the next
// query grows it from scratch.
func resetEnvelopeTable() { envelopeTable.Store(nil) }

// envelopeLen returns the current length of the shared table.
func envelopeLen() int {
	if t := envelopeTable.Load(); t != nil {
		return len(*t)
	}
	return 0
}

// checkPowers compares every power of m below len(want) with want under
// math.Float64bits.
func checkPowers(t *testing.T, name string, m *SolarModel, want []float64) {
	t.Helper()
	for k, w := range want {
		if got := m.PowerAt(float64(k) + 0.5); math.Float64bits(got) != math.Float64bits(w) {
			t.Fatalf("%s: power at unit %d = %v (%#x), naive = %v (%#x)",
				name, k, got, math.Float64bits(got), w, math.Float64bits(w))
		}
	}
}

// TestEnvelopeTableBitIdentical pins the shared envelope table to the
// in-place computation: for 32 seeds and horizons on both sides of every
// table size it passes through, a model extended unit by unit, one
// extended in one jump, a fork taken before the table grew and one taken
// halfway through the trace all realize exactly the naive powers.
func TestEnvelopeTableBitIdentical(t *testing.T) {
	var forkOutgrown bool
	for _, h := range envelopeHorizons {
		resetEnvelopeTable()
		for seed := uint64(0); seed < envelopeSeeds; seed++ {
			want := naiveSolar(seed, h)

			step := NewSolarModel(seed)
			early := step.Fork()
			earlyLen := envelopeLen()
			var mid *SolarModel
			for k := 0; k < h; k++ {
				step.PowerAt(float64(k))
				if k == h/2 {
					mid = step.Fork()
				}
			}
			jump := NewSolarModel(seed)
			jump.PowerAt(float64(h - 1))
			if envelopeLen() > earlyLen {
				forkOutgrown = true
			}

			checkPowers(t, "unit by unit", step, want)
			checkPowers(t, "one jump", jump, want)
			checkPowers(t, "fork before growth", early, want)
			checkPowers(t, "fork halfway", mid, want)
		}
		if n := envelopeLen(); n < h || n > max(2*h, minEnvelopeTable) {
			t.Fatalf("horizon %d: table holds %d units, want [%d, %d]", h, n, h, max(2*h, minEnvelopeTable))
		}
	}
	if !forkOutgrown {
		t.Fatal("no fork was taken before the table grew")
	}
}

// TestEnvelopeTableConcurrentGrowth realizes eight seeds on eight
// goroutines from an empty table, so they grow it and read it at once;
// under -race this pins the lock-free readers and the published copies.
func TestEnvelopeTableConcurrentGrowth(t *testing.T) {
	const workers = 8
	h := envelopeHorizons[len(envelopeHorizons)-1]
	want := make([][]float64, workers)
	for g := range want {
		want[g] = naiveSolar(uint64(100+g), h)
	}
	resetEnvelopeTable()
	models := make([]*SolarModel, workers)
	var wg sync.WaitGroup
	for g := range models {
		models[g] = NewSolarModel(uint64(100 + g))
		wg.Add(1)
		go func(m *SolarModel) {
			defer wg.Done()
			for k := 0; k < h; k++ {
				m.PowerAt(float64(k))
			}
		}(models[g])
	}
	wg.Wait()
	for g, m := range models {
		checkPowers(t, "concurrent", m, want[g])
	}
}

// TestEnvelopeTableRunawayDoesNotGrow: a query past maxSolarSamples
// panics before it touches the table.
func TestEnvelopeTableRunawayDoesNotGrow(t *testing.T) {
	resetEnvelopeTable()
	s := NewSolarModel(3)
	s.PowerAt(100)
	before := envelopeLen()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("query past maxSolarSamples did not panic")
			}
		}()
		s.PowerAt(maxSolarSamples)
	}()
	if got := envelopeLen(); got != before {
		t.Fatalf("runaway query grew the envelope table from %d to %d units", before, got)
	}
}
