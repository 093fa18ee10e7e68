package storage

import (
	"fmt"
	"math"
)

// netRate returns the store-level derivative under simultaneous constant
// harvest power ps and load power pc, including charge/discharge
// efficiency and leakage.
func (s *Store) netRate(ps, pc float64) float64 {
	return float64(ps*s.chargeEff) - pc/s.dischargeEff - s.leakRate
}

// TimeToEmpty returns how long the store can keep the load served under
// constant harvest ps and load pc, or +Inf when the load never becomes
// unservable: either the level is non-decreasing, or the harvest inflow
// alone covers the load (then only leakage drains the store, and an empty
// store simply stops leaking — the load is unaffected). A store already
// empty with an uncoverable load returns 0.
func (s *Store) TimeToEmpty(ps, pc float64) float64 {
	checkPower(ps, pc)
	if ps*s.chargeEff >= pc/s.dischargeEff {
		return math.Inf(1)
	}
	net := s.netRate(ps, pc)
	if net >= 0 {
		return math.Inf(1)
	}
	return s.level / -net
}

// Flow applies simultaneous constant harvest power ps and load power pc
// over an interval of length dt, with exact continuous semantics:
// the level follows dE/dt = ps·ηc − pc/ηd − leak, pinned at the capacity
// (surplus overflows and is discarded) and the load is fully served.
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
	net := s.netRate(ps, pc)
	end := s.level + float64(net*dt)

	const tol = 1e-7
	if end < -tol*max(1, pc*dt) {
		inflow := float64(ps * s.chargeEff)
		loadRate := pc / s.dischargeEff
		if loadRate > inflow+tol {
			// The load itself over-draws an emptying store: the caller
			// (engine) must have split at TimeToEmpty — this is a bug.
			panic(fmt.Sprintf("storage: Flow empties the store mid-interval (level %v, net %v, dt %v)", s.level, net, dt))
		}
		// Only leakage drives the level below zero while the harvest
		// covers the load; physically the store pins at empty and stops
		// leaking. Account the two phases exactly.
		tc := dt
		if net < 0 {
			tc = min(dt, s.level/-net)
		}
		s.totalHarvested += float64(ps * dt)
		delivered = float64(pc * dt)
		s.totalDrawn += delivered
		// Phase 1 (level > 0): full leak. Phase 2 (pinned at 0): the
		// effective leak is the inflow surplus, inflow − loadRate < leak.
		leaked := float64(s.leakRate*tc) + float64((inflow-loadRate)*(dt-tc))
		s.totalLeaked += leaked
		s.totalStored += float64(inflow * dt)
		s.level = 0
		return delivered, 0
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
	stored := end - s.level + float64(pc/s.dischargeEff*dt) + float64(s.leakRate*dt)
	// stored is the harvest energy accepted (ps·ηc·dt − overflow); meter
	// the components consistently with Harvest/Draw/Leak.
	s.totalStored += stored
	s.totalOverflow += overflow
	s.totalLeaked += float64(s.leakRate * dt)
	if end < 0 {
		end = 0
	}
	s.level = end
	return delivered, overflow
}

func checkPower(ps, pc float64) {
	if ps < 0 || pc < 0 || math.IsNaN(ps) || math.IsNaN(pc) {
		panic(fmt.Sprintf("storage: invalid powers ps=%v pc=%v", ps, pc))
	}
}
