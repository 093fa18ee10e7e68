package storage

import (
	"fmt"
	"math"
)

// TimeToEmpty returns how long the store can keep the load served under
// constant harvest ps and load pc, or +Inf when the harvest covers the
// load. A store already empty with an uncovered load returns 0.
func (s *Store) TimeToEmpty(ps, pc float64) float64 {
	checkPower(ps, pc)
	if ps >= pc {
		return math.Inf(1)
	}
	return s.level / (pc - ps)
}

// Flow applies simultaneous constant harvest power ps and load power pc
// over an interval of length dt, with exact continuous semantics:
// the level follows dE/dt = ps − pc, pinned at the capacity (surplus
// overflows and is discarded) and the load is fully served.
//
// Precondition: the store must not empty strictly inside the interval —
// the simulation engine schedules that crossing as an event and splits
// there (it ends exactly at empty at worst). Violations panic, because a
// silently unserved load would corrupt every downstream experiment.
//
// It returns the energy delivered to the load (= pc·dt) and the harvest
// energy discarded as overflow.
func (s *Store) Flow(ps, pc, dt float64) (delivered, overflow float64) {
	checkPower(ps, pc)
	if dt < 0 || math.IsNaN(dt) {
		panic(fmt.Sprintf("storage: Flow over invalid interval %v", dt))
	}
	if dt == 0 {
		return 0, 0
	}
	net := ps - pc
	end := s.level + float64(net*dt)

	const tol = 1e-7
	if end < 0 && end < -tol*max(1, pc*dt) { // the bound matters only below empty
		// The load over-draws an emptying store: the caller (engine)
		// must have split at TimeToEmpty — this is a bug.
		panic(fmt.Sprintf("storage: Flow empties the store mid-interval (level %v, net %v, dt %v)", s.level, net, dt))
	}

	s.totalHarvested += float64(ps * dt)
	delivered = float64(pc * dt)
	s.totalDrawn += delivered

	if end > s.capacity {
		// The level path hits the capacity at some point inside the
		// interval and stays pinned; everything above the cap is
		// discarded harvest. (With net > 0 the pin time is
		// (cap-level)/net; the overflowed energy is net*(dt - pinTime)
		// = end - cap exactly, by linearity.)
		overflow = end - s.capacity
		end = s.capacity
	}
	// The harvest energy accepted: ps·dt − overflow.
	s.totalStored += end - s.level + delivered
	s.totalOverflow += overflow
	if end < 0 {
		end = 0
	}
	s.level = end
	return delivered, overflow
}

// checkPower panics on a negative or NaN power. It stays small enough to
// inline into the hot Flow and TimeToEmpty; the formatting is out of line.
func checkPower(ps, pc float64) {
	if !(ps >= 0 && pc >= 0) {
		invalidPowers(ps, pc)
	}
}

//go:noinline
func invalidPowers(ps, pc float64) {
	panic(fmt.Sprintf("storage: invalid powers ps=%v pc=%v", ps, pc))
}
