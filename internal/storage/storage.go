// Package storage models the energy reservoir of the harvesting system
// (paper §3.2): a capacity-limited store that satisfies the paper's
// constraints (1)–(4). The store is the paper's ideal one — fully
// chargeable to C, fully dischargeable to 0, and harvest overflowing a
// full store is discarded.
package storage

import (
	"fmt"
	"math"
)

// Reservoir is the energy-store abstraction the simulation engine drives.
// *Store, the paper's ideal store, implements it; wrappers (storage fault
// injection, per-layer timing) forward to a *Store.
type Reservoir interface {
	// Capacity returns the total capacity C (possibly +Inf).
	Capacity() float64
	// Level returns the stored energy EC(t).
	Level() float64
	// Flow applies simultaneous constant harvest power ps and load power
	// pc over dt; see Store.Flow for the exact semantics and the
	// no-mid-interval-empty precondition.
	Flow(ps, pc, dt float64) (delivered, overflow float64)
	// TimeToEmpty returns how long the reservoir can serve load pc under
	// harvest ps before the load becomes unservable.
	TimeToEmpty(ps, pc float64) float64
	// Draw removes up to e units instantaneously (DPM sleep transitions).
	Draw(e float64) float64
	// Meters returns the cumulative energy accounting.
	Meters() Meters
	// ConservationError returns the energy-balance discrepancy given the
	// initial level; ~0 for a correct implementation.
	ConservationError(initial float64) float64
}

// Store is an energy reservoir. The zero value is invalid; construct with
// New or NewIdeal.
type Store struct {
	capacity float64
	level    float64

	// Cumulative meters.
	totalHarvested float64 // energy offered by the source
	totalStored    float64 // energy that entered the store
	totalOverflow  float64 // energy discarded because the store was full
	totalDrawn     float64 // energy delivered to the load
}

// New returns a store with the given capacity and initial level. Capacity
// may be math.Inf(1) — the paper's §4.3 special case under which EA-DVFS
// degenerates to EDF. initial must be within [0, capacity].
func New(capacity, initial float64) *Store {
	if capacity < 0 || math.IsNaN(capacity) {
		panic(fmt.Sprintf("storage: invalid capacity %v", capacity))
	}
	if initial < 0 || initial > capacity || math.IsNaN(initial) {
		panic(fmt.Sprintf("storage: initial level %v outside [0, %v]", initial, capacity))
	}
	return &Store{capacity: capacity, level: initial}
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

// Draw requests e >= 0 units of energy for the load and returns the energy
// actually delivered: min(e, level).
func (s *Store) Draw(e float64) (delivered float64) {
	if e < 0 || math.IsNaN(e) {
		panic(fmt.Sprintf("storage: drawing invalid energy %v", e))
	}
	delivered = min(e, s.level)
	s.level -= delivered
	s.totalDrawn += delivered
	return delivered
}

// Meters is the cumulative energy accounting of a store.
type Meters struct {
	Harvested float64 // offered by the source
	Stored    float64 // accepted into the store
	Overflow  float64 // discarded, store full
	Drawn     float64 // delivered to the load
	Leaked    float64 // lost to self-discharge; 0, the ideal store does not leak
}

// Meters returns a snapshot of the cumulative accounting.
func (s *Store) Meters() Meters {
	return Meters{
		Harvested: s.totalHarvested,
		Stored:    s.totalStored,
		Overflow:  s.totalOverflow,
		Drawn:     s.totalDrawn,
	}
}

// ConservationError returns the discrepancy in the store's energy balance:
// initial + stored − drawn − level. For a correct store it is ~0 up to
// floating-point error; the engine asserts this each run.
func (s *Store) ConservationError(initial float64) float64 {
	if math.IsInf(s.capacity, 1) {
		return 0 // balance not meaningful with infinite terms
	}
	return initial + s.totalStored - s.totalDrawn - s.level
}
