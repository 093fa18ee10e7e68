// Package obs is the unified observability layer of the simulator: a probe
// interface the engine and the schedulers report into, a metrics registry
// with Prometheus text exposition, a versioned JSONL structured-event sink,
// and run manifests that make any result artifact reproducible.
//
// Design constraints (DESIGN.md §10):
//
//   - The disabled path is free. Every emission site nil-checks the probe,
//     records are plain value structs built from already-computed state, and
//     no strings are formatted unless a probe is attached — the
//     internal/bench figure workloads must not move against
//     BENCH_baseline.json.
//   - Probes may be shared across the experiment harness's parallel
//     workers; the implementations in this package are safe for concurrent
//     use. The nil-check contract means a probe must be attached before a
//     run starts and never swapped mid-run.
//   - Everything a probe sees is also representable in JSONL schema v1
//     (jsonl.go), so any run can be post-processed with jq or replayed into
//     the metrics registry offline.
package obs

import "sync"

// EventKind classifies an engine event.
type EventKind string

// Engine event kinds (JSONL schema v1 `kind` values).
const (
	// KindArrival: a job was released into the ready queue.
	KindArrival EventKind = "arrival"
	// KindDispatch: a job started (or resumed) execution at Level.
	KindDispatch EventKind = "dispatch"
	// KindSegment: a maximal constant-activity interval [Start, Time)
	// closed; Mode names the activity, Level the operating point for runs.
	KindSegment EventKind = "segment"
	// KindCompletion: a job finished all its work.
	KindCompletion EventKind = "completion"
	// KindEarlyCompletion: a completing job left unspent WCET budget —
	// its drawn actual work came in under the declared worst case
	// (stochastic execution, task.ExecSpec).
	// Always emitted immediately after the job's KindCompletion.
	KindEarlyCompletion EventKind = "early-completion"
	// KindMiss: a job's deadline passed with work remaining.
	KindMiss EventKind = "miss"
	// KindStall: the store was exhausted with a job selected (§4.2).
	KindStall EventKind = "stall"
	// KindFault: an injected fault bent the run (Detail says how, e.g.
	// "dvfs-clamp").
	KindFault EventKind = "fault"
	// KindInvariant: the runtime invariant checker recorded a violation
	// (Detail carries the violation kind and message).
	KindInvariant EventKind = "invariant"
)

// KnownEventKinds lists every kind the engine emits, in a stable order —
// the authoritative set for the JSONL schema checker.
func KnownEventKinds() []EventKind {
	return []EventKind{
		KindArrival, KindDispatch, KindSegment, KindCompletion,
		KindEarlyCompletion, KindMiss, KindStall, KindFault, KindInvariant,
	}
}

// Event is one engine occurrence. TaskID/Seq are -1 when no job is
// attached. Start is meaningful only for KindSegment (the segment's left
// edge); Level only for KindDispatch, KindSegment and KindFault.
type Event struct {
	Time   float64
	Kind   EventKind
	TaskID int
	Seq    int
	Level  int
	Start  float64
	Mode   string // segment activity: "run", "idle", "stall", "sleep"
	Detail string // fault/invariant specifics
}

// Reason is a scheduler decision-audit reason code. The table is closed:
// the JSONL schema checker rejects unknown codes, so adding a policy
// branch means extending KnownReasons (and the DESIGN.md §10 table).
type Reason string

// Decision reason codes.
const (
	// ReasonFullSpeedEnergyRich: s1 = s2 = now — the available energy
	// sustains full speed through the deadline (Figure 4 line 5; LSA's
	// immediate start).
	ReasonFullSpeedEnergyRich Reason = "full-speed:energy-rich"
	// ReasonFullSpeedEnergyPoor: the s2 instant was reached — the job must
	// run flat-out so it cannot steal time from future tasks (§4.3; LSA's
	// lazy start at s2).
	ReasonFullSpeedEnergyPoor Reason = "full-speed:energy-poor"
	// ReasonFullSpeedInfeasible: even f_max cannot meet the deadline; run
	// flat-out and let the engine account the miss.
	ReasonFullSpeedInfeasible Reason = "full-speed:infeasible"
	// ReasonStretchSlackRich: stretched execution at the minimum feasible
	// frequency on [s1, s2) — slack is traded for energy (Figure 4 line 8).
	ReasonStretchSlackRich Reason = "stretch:slack-rich"
	// ReasonIdleRecharge: the start instant (s1, or s2 for LSA) lies ahead;
	// idle so the store recharges.
	ReasonIdleRecharge Reason = "idle:recharge"
	// ReasonIdleNoJob: the ready queue is empty.
	ReasonIdleNoJob Reason = "idle:no-job"
	// ReasonStretchReclaimed: a slack-reclaiming decorator lowered the
	// inner policy's operating point, speculating on the task's observed
	// early completions (Leung/Tsui-style reclamation). The latest safe
	// full-budget start still guards the deadline.
	ReasonStretchReclaimed Reason = "stretch:reclaimed"
	// ReasonFullSpeedReclaimGuard: the reclaiming decorator wanted to
	// speculate but the latest safe start was reached — the inner
	// decision passes through untouched so the full WCET budget still
	// fits before the deadline.
	ReasonFullSpeedReclaimGuard Reason = "full-speed:reclaim-guard"
)

// KnownReasons lists every reason code policies emit, in a stable order.
func KnownReasons() []Reason {
	return []Reason{
		ReasonFullSpeedEnergyRich, ReasonFullSpeedEnergyPoor,
		ReasonFullSpeedInfeasible, ReasonStretchSlackRich,
		ReasonIdleRecharge, ReasonIdleNoJob,
		ReasonStretchReclaimed, ReasonFullSpeedReclaimGuard,
	}
}

// DecisionRecord is one scheduler decision audit: the state the policy saw
// and what it chose, in the paper's vocabulary (§4 eqs. 5–9). Level is -1
// (and Speed 0) for idle decisions; S1/S2 are zero for policies that do not
// compute them; Until may be +Inf ("until the next event").
type DecisionRecord struct {
	Time      float64
	Policy    string
	TaskID    int
	Seq       int
	Deadline  float64 // absolute deadline of the audited job
	Slack     float64 // Deadline - Time
	Stored    float64 // EC(now)
	Predicted float64 // ÊS(now, Deadline)
	Available float64 // Stored + Predicted
	S1        float64 // eq. (7) latest stretched start
	S2        float64 // eq. (8) latest full-speed start
	Level     int     // chosen operating point, -1 when idling
	Speed     float64 // normalized speed of Level, 0 when idling
	Until     float64 // requested re-evaluation instant
	Reason    Reason
}

// Probe observes a run: engine events and scheduler decision audits.
// Implementations must tolerate concurrent calls when shared across
// parallel runs, and must not retain pointers into the engine (records are
// value copies precisely so retention is safe).
type Probe interface {
	OnEvent(Event)
	OnDecision(DecisionRecord)
}

// Multi fans a run out to several probes in order. Nil members are
// skipped; a Multi of zero non-nil probes behaves like nil.
func Multi(probes ...Probe) Probe {
	var live []Probe
	for _, p := range probes {
		if p != nil {
			live = append(live, p)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multi(live)
}

type multi []Probe

func (m multi) OnEvent(ev Event) {
	for _, p := range m {
		p.OnEvent(ev)
	}
}

func (m multi) OnDecision(d DecisionRecord) {
	for _, p := range m {
		p.OnDecision(d)
	}
}

// OnSpan implements SpanSink by fanning to the members that are span
// sinks themselves. Note a Multi always satisfies SpanSink even when no
// member does — producers that gate span creation on a type assertion
// should prefer handing the real sink around.
func (m multi) OnSpan(sp Span) {
	for _, p := range m {
		if ss, ok := p.(SpanSink); ok {
			ss.OnSpan(sp)
		}
	}
}

// TraceParent implements TraceCarrier: the first member carrying a valid
// parent span context wins.
func (m multi) TraceParent() SpanContext {
	for _, p := range m {
		if sc := SpanParentOf(p); sc.Valid() {
			return sc
		}
	}
	return SpanContext{}
}

// Recorder is a Probe that retains everything it sees, for tests, for the
// differential harness (internal/verify) and for eatrace's -audit
// listing. Safe for concurrent use. The schedule-shaped view — coalesced
// segments for a Gantt chart or CSV — is internal/trace's Recorder.
type Recorder struct {
	mu        sync.Mutex
	events    []Event
	decisions []DecisionRecord
	spans     []Span
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// OnEvent implements Probe.
func (r *Recorder) OnEvent(ev Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// OnDecision implements Probe.
func (r *Recorder) OnDecision(d DecisionRecord) {
	r.mu.Lock()
	r.decisions = append(r.decisions, d)
	r.mu.Unlock()
}

// Events returns the recorded engine events in emission order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Decisions returns the recorded decision audits in emission order.
func (r *Recorder) Decisions() []DecisionRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]DecisionRecord(nil), r.decisions...)
}

// OnSpan implements SpanSink.
func (r *Recorder) OnSpan(sp Span) {
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// Spans returns the recorded spans in completion order.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}
