package storage

import (
	"fmt"
	"math"
)

// Reservoir is the energy-store abstraction the simulation engine drives.
// *Store (the paper's ideal single store) and *Hybrid (a Prometheus-style
// supercapacitor + battery tier, paper reference [3]) both implement it.
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

// Hybrid is a two-tier reservoir: a small, lossless supercapacitor in
// front of a large battery with charge/discharge losses — the Prometheus
// architecture [3]. Harvest fills the supercap first and spills into the
// battery; load drains the supercap first and falls back to the battery.
// The tiering keeps the frequent small charge/discharge cycles on the
// lossless tier and reserves the battery for ride-through.
type Hybrid struct {
	cap  *Store // tier 1: lossless
	batt *Store // tier 2: lossy

	capInitial  float64
	battInitial float64

	totalHarvested float64
	totalDrawn     float64
}

// NewHybrid builds a hybrid reservoir. Both tiers start at the given
// levels; battEff is the battery's symmetric charge/discharge efficiency
// in (0, 1].
func NewHybrid(capSize, capLevel, battSize, battLevel, battEff float64) *Hybrid {
	if battEff <= 0 || battEff > 1 {
		panic(fmt.Sprintf("storage: battery efficiency %v outside (0,1]", battEff))
	}
	return &Hybrid{
		cap:         New(capSize, capLevel),
		batt:        New(battSize, battLevel, WithChargeEfficiency(battEff), WithDischargeEfficiency(battEff)),
		capInitial:  capLevel,
		battInitial: battLevel,
	}
}

// Capacity implements Reservoir.
func (h *Hybrid) Capacity() float64 { return h.cap.Capacity() + h.batt.Capacity() }

// Level implements Reservoir: the sum of the tier levels. (Discharge
// losses mean the *deliverable* energy is lower; schedulers budgeting
// with Level are optimistic by the battery's inefficiency, exactly as a
// fuel-gauge reading would be.)
func (h *Hybrid) Level() float64 { return h.cap.Level() + h.batt.Level() }

// CapLevel returns the supercapacitor tier's level.
func (h *Hybrid) CapLevel() float64 { return h.cap.Level() }

// BattLevel returns the battery tier's level.
func (h *Hybrid) BattLevel() float64 { return h.batt.Level() }

// TimeToEmpty implements Reservoir: time until the load becomes
// unservable — the supercap drains first, then the battery.
func (h *Hybrid) TimeToEmpty(ps, pc float64) float64 {
	checkPower(ps, pc)
	if ps >= pc {
		return math.Inf(1)
	}
	deficit := pc - ps
	t := h.cap.Level() / deficit
	// Battery delivers level·eff usable energy at drain rate deficit.
	t += h.batt.Level() * h.batt.dischargeEff / deficit
	return t
}

// Flow implements Reservoir with exact piecewise integration across the
// internal tier transitions (supercap empties / fills mid-interval).
func (h *Hybrid) Flow(ps, pc, dt float64) (delivered, overflow float64) {
	checkPower(ps, pc)
	if dt < 0 || math.IsNaN(dt) {
		panic(fmt.Sprintf("storage: Flow over invalid interval %v", dt))
	}
	const tol = 1e-9
	if dt > h.TimeToEmpty(ps, pc)+float64(tol*max(1, dt)) {
		panic(fmt.Sprintf("storage: hybrid Flow empties mid-interval (dt %v, tte %v)", dt, h.TimeToEmpty(ps, pc)))
	}
	h.totalHarvested += float64(ps * dt)
	h.totalDrawn += float64(pc * dt)
	delivered = pc * dt

	remaining := dt
	for remaining > tol {
		var step float64
		switch {
		case ps >= pc:
			// Surplus charges the supercap until it pins, then the
			// battery until it pins, then overflows.
			surplus := ps - pc
			if surplus == 0 {
				remaining = 0
				continue
			}
			switch {
			case !h.cap.Full():
				step = min(remaining, h.cap.FillFor(surplus))
				h.cap.Harvest(surplus * step)
			case !h.batt.Full():
				// Battery stores surplus·ηc per unit time.
				tFill := h.batt.FillFor(surplus * h.batt.chargeEff)
				step = min(remaining, tFill)
				overflow += h.batt.Harvest(surplus * step)
			default:
				step = remaining
				overflow += float64(surplus * step)
			}
		default:
			// Deficit drains the supercap, then the battery.
			deficit := pc - ps
			if h.cap.Level() > tol {
				step = min(remaining, h.cap.RunFor(deficit))
				h.cap.Draw(deficit * step)
			} else {
				step = remaining
				h.batt.Draw(deficit * step)
			}
		}
		if step <= 0 {
			step = remaining // numerical guard: never stall the loop
		}
		remaining -= step
	}
	return delivered, overflow
}

// Draw implements Reservoir: supercap first, battery second.
func (h *Hybrid) Draw(e float64) float64 {
	got := h.cap.Draw(e)
	if got < e {
		got += h.batt.Draw(e - got)
	}
	h.totalDrawn += got
	return got
}

// Meters implements Reservoir with tier-combined accounting.
func (h *Hybrid) Meters() Meters {
	cm, bm := h.cap.Meters(), h.batt.Meters()
	return Meters{
		Harvested: h.totalHarvested,
		Stored:    cm.Stored + bm.Stored,
		Overflow:  cm.Overflow + bm.Overflow,
		Drawn:     h.totalDrawn,
		Leaked:    cm.Leaked + bm.Leaked,
	}
}

// ConservationError implements Reservoir: the sum of the per-tier balance
// errors (each ~0 for a correct hybrid). Battery efficiency losses are
// accounted inside the battery tier's own balance; harvest delivered
// straight to the load never touches either balance. The initial argument
// is accepted for interface parity and cross-checked against the recorded
// tier initials.
func (h *Hybrid) ConservationError(initial float64) float64 {
	mismatch := initial - (h.capInitial + h.battInitial)
	return h.cap.ConservationError(h.capInitial) + h.batt.ConservationError(h.battInitial) + mismatch
}
