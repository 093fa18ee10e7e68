// Package storage models the energy reservoir of the harvesting system
// (paper §3.2): a capacity-limited store that satisfies the paper's
// constraints (1)–(4). The paper assumes an ideal store — fully chargeable
// to C, fully dischargeable to 0, harvest overflowing a full store is
// discarded. Non-idealities (round-trip efficiency, leakage) are supported
// as extensions for the ablation benches; with the defaults they vanish and
// the store is exactly the paper's.
package storage

import (
	"fmt"
	"math"
)

// Store is an energy reservoir. The zero value is invalid; construct with
// New or NewIdeal.
type Store struct {
	capacity float64
	level    float64

	// Non-ideal extensions; 1, 1, 0 reproduce the paper's ideal store.
	chargeEff    float64 // fraction of harvested energy actually stored
	dischargeEff float64 // stored energy per unit delivered = 1/dischargeEff
	leakRate     float64 // energy lost per time unit while stored

	// Cumulative meters.
	totalHarvested float64 // energy offered by the source
	totalStored    float64 // energy that entered the store after losses
	totalOverflow  float64 // energy discarded because the store was full
	totalDrawn     float64 // energy delivered to the load
	totalLeaked    float64 // energy lost to leakage
}

// Option configures a Store.
type Option func(*Store)

// WithChargeEfficiency sets the fraction of offered harvest energy that is
// actually stored (0 < eff <= 1).
func WithChargeEfficiency(eff float64) Option {
	if eff <= 0 || eff > 1 {
		panic(fmt.Sprintf("storage: charge efficiency %v outside (0,1]", eff))
	}
	return func(s *Store) { s.chargeEff = eff }
}

// WithDischargeEfficiency sets the fraction of drawn stored energy that
// reaches the load (0 < eff <= 1): delivering e to the load removes
// e/eff from the store.
func WithDischargeEfficiency(eff float64) Option {
	if eff <= 0 || eff > 1 {
		panic(fmt.Sprintf("storage: discharge efficiency %v outside (0,1]", eff))
	}
	return func(s *Store) { s.dischargeEff = eff }
}

// WithLeakage sets a constant self-discharge rate in energy per time unit.
func WithLeakage(rate float64) Option {
	if rate < 0 {
		panic(fmt.Sprintf("storage: negative leakage rate %v", rate))
	}
	return func(s *Store) { s.leakRate = rate }
}

// New returns a store with the given capacity and initial level. Capacity
// may be math.Inf(1) — the paper's §4.3 special case under which EA-DVFS
// degenerates to EDF. initial must be within [0, capacity].
func New(capacity, initial float64, opts ...Option) *Store {
	if capacity < 0 || math.IsNaN(capacity) {
		panic(fmt.Sprintf("storage: invalid capacity %v", capacity))
	}
	if initial < 0 || initial > capacity || math.IsNaN(initial) {
		panic(fmt.Sprintf("storage: initial level %v outside [0, %v]", initial, capacity))
	}
	s := &Store{capacity: capacity, level: initial, chargeEff: 1, dischargeEff: 1}
	for _, o := range opts {
		o(s)
	}
	return s
}

// NewIdeal returns the paper's ideal store, initially full ("In the
// beginning of the simulation, the energy storage is full", §5.1).
func NewIdeal(capacity float64) *Store {
	return New(capacity, capacity)
}

// Capacity returns C.
func (s *Store) Capacity() float64 { return s.capacity }

// Level returns the stored energy EC(t).
func (s *Store) Level() float64 { return s.level }

// Fraction returns Level/Capacity in [0,1]; it returns 1 for an infinite
// store holding infinite energy and 0 for an infinite store holding finite
// energy (the normalization is only meaningful for finite capacities).
func (s *Store) Fraction() float64 {
	if math.IsInf(s.capacity, 1) {
		if math.IsInf(s.level, 1) {
			return 1
		}
		return 0
	}
	if s.capacity == 0 {
		return 0
	}
	return s.level / s.capacity
}

// Full reports whether the store is at capacity.
func (s *Store) Full() bool { return s.level >= s.capacity }

// Empty reports whether the store is exhausted.
func (s *Store) Empty() bool { return s.level <= 0 }

// Harvest offers e >= 0 units of harvested energy. It stores what fits
// (after charge efficiency) and returns the overflow discarded, per §3.2:
// "If the stored energy reaches the capacity, the incoming harvested energy
// overflows the storage and is discarded."
func (s *Store) Harvest(e float64) (overflow float64) {
	if e < 0 || math.IsNaN(e) {
		panic(fmt.Sprintf("storage: harvesting invalid energy %v", e))
	}
	s.totalHarvested += e
	usable := float64(e * s.chargeEff)
	space := s.capacity - s.level
	if math.IsInf(space, 1) {
		space = math.Inf(1)
	}
	stored := min(usable, space)
	s.level += stored
	s.totalStored += stored
	overflow = usable - stored
	s.totalOverflow += overflow
	return overflow
}

// Draw requests e >= 0 units of energy for the load and returns the energy
// actually delivered, at most e. With an ideal store, delivery is
// min(e, level); discharge efficiency makes the store deplete faster than
// the delivered amount.
func (s *Store) Draw(e float64) (delivered float64) {
	if e < 0 || math.IsNaN(e) {
		panic(fmt.Sprintf("storage: drawing invalid energy %v", e))
	}
	need := e / s.dischargeEff // stored energy required
	taken := min(need, s.level)
	s.level -= taken
	delivered = float64(taken * s.dischargeEff)
	s.totalDrawn += delivered
	return delivered
}

// RunFor answers how long the store can sustain a constant net drain of
// rate > 0 (stored-energy units per time) before emptying. It does not
// mutate the store.
func (s *Store) RunFor(rate float64) float64 {
	if rate <= 0 {
		panic(fmt.Sprintf("storage: RunFor with non-positive rate %v", rate))
	}
	return s.level / rate
}

// FillFor answers how long a constant net inflow of rate > 0 takes to fill
// the store. It returns +Inf for an infinite store. It does not mutate.
func (s *Store) FillFor(rate float64) float64 {
	if rate <= 0 {
		panic(fmt.Sprintf("storage: FillFor with non-positive rate %v", rate))
	}
	if math.IsInf(s.capacity, 1) {
		return math.Inf(1)
	}
	return (s.capacity - s.level) / rate
}

// Leak applies self-discharge over dt time units.
func (s *Store) Leak(dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("storage: negative leak interval %v", dt))
	}
	if s.leakRate == 0 {
		return
	}
	lost := min(s.leakRate*dt, s.level)
	s.level -= lost
	s.totalLeaked += lost
}

// Meters is the cumulative energy accounting of a store.
type Meters struct {
	Harvested float64 // offered by the source
	Stored    float64 // accepted into the store
	Overflow  float64 // discarded, store full
	Drawn     float64 // delivered to the load
	Leaked    float64 // lost to self-discharge
}

// Meters returns a snapshot of the cumulative accounting.
func (s *Store) Meters() Meters {
	return Meters{
		Harvested: s.totalHarvested,
		Stored:    s.totalStored,
		Overflow:  s.totalOverflow,
		Drawn:     s.totalDrawn,
		Leaked:    s.totalLeaked,
	}
}

// ConservationError returns the discrepancy in the store's energy balance:
// initial + stored − drawnFromStore − leaked − level. For a correct store it
// is ~0 up to floating-point error; the engine asserts this each run.
func (s *Store) ConservationError(initial float64) float64 {
	if math.IsInf(s.capacity, 1) {
		return 0 // balance not meaningful with infinite terms
	}
	drawnFromStore := s.totalDrawn / s.dischargeEff
	return initial + s.totalStored - drawnFromStore - s.totalLeaked - s.level
}
