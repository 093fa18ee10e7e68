package fault

import (
	"math"

	"github.com/eadvfs/eadvfs/internal/storage"
)

// degradedStore wraps a storage.Reservoir with capacity fade and leakage
// spikes. Fault losses are routed through the inner reservoir's metered
// Draw, so its energy-conservation accounting stays exact (the invariant
// checker holds on faulted runs); the fault-attributed amounts are
// recorded separately in the degradation counters.
//
// The wrapper tracks run time from the Flow intervals the engine feeds it
// (the engine integrates every instant of the run exactly once), which is
// what lets the time-dependent fade and spike schedules live behind the
// time-free Reservoir interface.
type degradedStore struct {
	inner   storage.Reservoir
	set     *Set
	baseCap float64
	now     float64
}

// WrapStore returns st with the storage faults applied, or st unchanged on
// a nil set.
func (s *Set) WrapStore(st storage.Reservoir) storage.Reservoir {
	if s == nil {
		return st
	}
	return &degradedStore{inner: st, set: s, baseCap: st.Capacity()}
}

// fadedCapacity returns the capacity after fade at time t.
func (d *degradedStore) fadedCapacity(t float64) float64 {
	lost := math.Min(d.set.fadeRate*t, d.set.fadeLimit)
	return d.baseCap * (1 - lost)
}

// spikeRateAt returns the extra self-discharge rate at time t.
func (d *degradedStore) spikeRateAt(t float64) float64 {
	if d.set.leakSpike.active(t) {
		return d.set.leakSpikeRate
	}
	return 0
}

// Capacity implements storage.Reservoir with the faded value.
func (d *degradedStore) Capacity() float64 { return d.fadedCapacity(d.now) }

// Level implements storage.Reservoir.
func (d *degradedStore) Level() float64 { return d.inner.Level() }

// TimeToEmpty implements storage.Reservoir, conservatively adding the
// active leakage spike — and, while the fade bound is binding, the fade
// drain — to the load so the engine splits segments no later than the
// store can actually sustain. Spike windows are unit-aligned and the
// engine re-decides at every unit boundary, so "active now" covers the
// whole interval the answer will be used for; the conservatism only ever
// makes the engine stall early (recorded as degradation), never breach
// Flow's no-mid-interval-empty precondition.
func (d *degradedStore) TimeToEmpty(ps, pc float64) float64 {
	extra := d.spikeRateAt(d.now)
	if !math.IsInf(d.baseCap, 1) && d.inner.Level() >= d.fadedCapacity(d.now) {
		extra += float64(d.set.fadeRate * d.baseCap)
	}
	return d.inner.TimeToEmpty(ps, pc+extra)
}

// Flow implements storage.Reservoir: nominal flow through the inner
// reservoir, then the fault drains. The spike drain uses the window
// overlap with the interval, so partial-unit intervals lose exactly their
// share; the fade drain removes whatever the shrunken capacity can no
// longer hold.
func (d *degradedStore) Flow(ps, pc, dt float64) (delivered, overflow float64) {
	delivered, overflow = d.inner.Flow(ps, pc, dt)
	start := d.now
	d.now += dt
	if ov := d.set.leakSpike.overlap(start, d.now); ov > 0 {
		lost := d.inner.Draw(d.set.leakSpikeRate * ov)
		d.set.counters.LeakSpikeEnergy += lost
	}
	if cap := d.fadedCapacity(d.now); d.inner.Level() > cap {
		faded := d.inner.Draw(d.inner.Level() - cap)
		d.set.counters.FadeEnergy += faded
	}
	return delivered, overflow
}

// Draw implements storage.Reservoir (instantaneous draws, e.g. DPM sleep
// transitions, pass straight through).
func (d *degradedStore) Draw(e float64) float64 { return d.inner.Draw(e) }

// Meters implements storage.Reservoir. Fault drains are included in the
// inner Drawn meter — they left the store through the load path — and
// broken out in the degradation counters.
func (d *degradedStore) Meters() storage.Meters { return d.inner.Meters() }

// ConservationError implements storage.Reservoir; exact because all fault
// drains are metered inner draws.
func (d *degradedStore) ConservationError(initial float64) float64 {
	return d.inner.ConservationError(initial)
}
