package main

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"github.com/eadvfs/eadvfs/internal/obs"
)

// eventValidator is the -validate-events probe: it checks every
// structured event and decision audit the sweep emits against the closed
// obs tables (known kinds, known segment modes, known reason codes,
// finite timestamps). A violation means an engine emitted vocabulary the
// schema doesn't declare — exactly the regression the scenario-smoke CI
// step exists to catch when a new registration lands.
//
// The probe is shared by all parallel runs of the sweep, so it keeps no
// per-run state: membership checks are pure, counters are atomic, and
// only the first violation's detail is retained (under a mutex) for the
// error message.
type eventValidator struct {
	events     atomic.Int64
	decisions  atomic.Int64
	violations atomic.Int64

	mu    sync.Mutex
	first string
}

var (
	knownKinds   = memberSet(obs.KnownEventKinds())
	knownReasons = memberSet(obs.KnownReasons())
	knownModes   = map[string]bool{"": true, "run": true, "idle": true, "stall": true, "sleep": true}
)

func memberSet[T comparable](members []T) map[T]bool {
	set := make(map[T]bool, len(members))
	for _, m := range members {
		set[m] = true
	}
	return set
}

func (v *eventValidator) violate(format string, args ...any) {
	if v.violations.Add(1) == 1 {
		v.mu.Lock()
		v.first = fmt.Sprintf(format, args...)
		v.mu.Unlock()
	}
}

func (v *eventValidator) OnEvent(e obs.Event) {
	v.events.Add(1)
	if !knownKinds[e.Kind] {
		v.violate("event kind %q not in obs.KnownEventKinds", e.Kind)
	}
	if !knownModes[e.Mode] {
		v.violate("segment mode %q unknown", e.Mode)
	}
	if math.IsNaN(e.Time) || math.IsInf(e.Time, 0) {
		v.violate("event %q at non-finite time %v", e.Kind, e.Time)
	}
}

func (v *eventValidator) OnDecision(d obs.DecisionRecord) {
	v.decisions.Add(1)
	if !knownReasons[d.Reason] {
		v.violate("decision reason %q not in obs.KnownReasons", d.Reason)
	}
	if math.IsNaN(d.Time) || math.IsInf(d.Time, 0) {
		v.violate("decision %q at non-finite time %v", d.Reason, d.Time)
	}
}

// report summarizes the validation pass; the error is non-nil when any
// event or decision fell outside the closed tables.
func (v *eventValidator) report(w io.Writer) error {
	if n := v.violations.Load(); n > 0 {
		v.mu.Lock()
		first := v.first
		v.mu.Unlock()
		return fmt.Errorf("%d invalid events/decisions (first: %s)", n, first)
	}
	fmt.Fprintf(w, "validate-events: %d events, %d decision audits, all within the closed obs tables\n",
		v.events.Load(), v.decisions.Load())
	return nil
}
