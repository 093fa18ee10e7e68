package sim

import (
	"fmt"
	"math"
	"strings"

	"github.com/eadvfs/eadvfs/internal/obs"
)

// maxViolations bounds how many violations one run records: the first few
// localize the bug, the rest are noise.
const maxViolations = 32

// InvariantViolation is one detected breach of the engine's physical or
// causal invariants.
type InvariantViolation struct {
	Kind   string  // "store-bounds", "conservation", "clock", "miss-stats", "policy-contract"
	Time   float64 // simulation time of detection
	Detail string
}

func (v InvariantViolation) String() string {
	return fmt.Sprintf("%s at t=%g: %s", v.Kind, v.Time, v.Detail)
}

// InvariantError is the structured error sim.Run returns when
// Config.CheckInvariants is set and the run breached an invariant. The
// Result is still returned alongside it for diagnosis.
type InvariantError struct {
	Violations []InvariantViolation
	Truncated  bool // more violations occurred than were recorded
}

// Error implements error.
func (e *InvariantError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: %d invariant violation(s)", len(e.Violations))
	if e.Truncated {
		b.WriteString(" (truncated)")
	}
	for i, v := range e.Violations {
		if i == 3 {
			fmt.Fprintf(&b, "; … %d more", len(e.Violations)-i)
			break
		}
		b.WriteString("; ")
		b.WriteString(v.String())
	}
	return b.String()
}

// EventBudgetError reports a run aborted by the event watchdog
// (Config.MaxEvents): the simulation dispatched more events than the
// budget allows, which in a correct setup means a runaway decision loop.
// The fields identify where the run was stuck.
type EventBudgetError struct {
	Events  uint64  // events dispatched when the watchdog fired
	Time    float64 // simulation clock at abort
	Horizon float64
	Pending int // events still queued
}

// Error implements error.
func (e *EventBudgetError) Error() string {
	return fmt.Sprintf("sim: event budget exhausted: %d events by t=%g of horizon %g (%d pending) — runaway run",
		e.Events, e.Time, e.Horizon, e.Pending)
}

// invariantChecker is the opt-in runtime self-check of the engine
// (Config.CheckInvariants): store bounds after every flow, energy
// conservation at unit boundaries and at the end, event-clock
// monotonicity, and miss-tally consistency. Violations are collected as
// structured data instead of panicking, so a corrupted substrate is
// diagnosable rather than fatal.
type invariantChecker struct {
	violations []InvariantViolation
	truncated  bool
	lastEvent  float64
	probe      obs.Probe // forwarded violations; nil when unobserved
}

func (c *invariantChecker) record(kind string, t float64, format string, args ...any) {
	detail := fmt.Sprintf(format, args...)
	if c.probe != nil {
		c.probe.OnEvent(obs.Event{
			Time: t, Kind: obs.KindInvariant,
			TaskID: -1, Seq: -1,
			Detail: kind + ": " + detail,
		})
	}
	if len(c.violations) >= maxViolations {
		c.truncated = true
		return
	}
	c.violations = append(c.violations, InvariantViolation{
		Kind:   kind,
		Time:   t,
		Detail: detail,
	})
}

// checkClock verifies event times reach the checker in non-decreasing
// order.
func (c *invariantChecker) checkClock(now float64) {
	if now < c.lastEvent-1e-9 {
		c.record("clock", now, "event clock moved backwards from %g", c.lastEvent)
		return
	}
	if now > c.lastEvent {
		c.lastEvent = now
	}
}

// checkStoreBounds verifies level ∈ [0, capacity] up to float tolerance.
func (c *invariantChecker) checkStoreBounds(t, level, capacity float64) {
	tol := 1e-6 * max(1, capacity)
	if math.IsInf(capacity, 1) {
		tol = 1e-6 * max(1, level)
	}
	if level < -tol || math.IsNaN(level) {
		c.record("store-bounds", t, "level %g below empty", level)
	} else if !math.IsInf(capacity, 1) && level > capacity+tol {
		c.record("store-bounds", t, "level %g above capacity %g", level, capacity)
	}
}

// checkConservation verifies the store's cumulative energy balance. scale
// anchors the relative tolerance to the magnitude of energy that moved.
func (c *invariantChecker) checkConservation(t, conservationErr, scale float64) {
	tol := 1e-6 * max(1, scale)
	if math.Abs(conservationErr) > tol || math.IsNaN(conservationErr) {
		c.record("conservation", t, "energy balance off by %g (tolerance %g)", conservationErr, tol)
	}
}

// err converts the collected violations into the error Run returns, or
// nil for a clean run.
func (c *invariantChecker) err() error {
	if c == nil || len(c.violations) == 0 {
		return nil
	}
	return &InvariantError{Violations: c.violations, Truncated: c.truncated}
}
