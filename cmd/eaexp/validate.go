package main

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"github.com/eadvfs/eadvfs/internal/obs"
)

// eventValidator is the -validate-events probe: it checks every
// structured event and decision audit the sweep emits with obs.CheckEvent
// and obs.CheckDecision, the rules CheckJSONL applies to a written
// stream. A violation means an engine emitted vocabulary the schema
// doesn't declare — exactly the regression the scenario-smoke CI step
// exists to catch when a new registration lands.
//
// The probe is shared by all parallel runs of the sweep, so it keeps no
// per-run state: the checks are pure, counters are atomic, and only the
// first violation's detail is retained (under a mutex) for the error
// message.
type eventValidator struct {
	events     atomic.Int64
	decisions  atomic.Int64
	violations atomic.Int64

	mu    sync.Mutex
	first string
}

func (v *eventValidator) violate(err error) {
	if v.violations.Add(1) == 1 {
		v.mu.Lock()
		v.first = err.Error()
		v.mu.Unlock()
	}
}

func (v *eventValidator) OnEvent(e obs.Event) {
	v.events.Add(1)
	if err := obs.CheckEvent(e); err != nil {
		v.violate(err)
	}
}

func (v *eventValidator) OnDecision(d obs.DecisionRecord) {
	v.decisions.Add(1)
	if err := obs.CheckDecision(d); err != nil {
		v.violate(err)
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
