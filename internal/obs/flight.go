package obs

// Fleet flight recorder: a bounded, always-on ring of the most recent
// spans and decision audits inside a worker. When a sweep goes sideways,
// `GET /debug/flight` (or SIGQUIT on easerve) dumps the last moments of
// the process without having had tracing storage configured in advance —
// the same idea as an aircraft flight recorder (DESIGN.md §15).

import "sync"

// DefaultFlightSpans and DefaultFlightDecisions bound the recorder when
// the caller passes non-positive capacities.
const (
	DefaultFlightSpans     = 256
	DefaultFlightDecisions = 256
)

// FlightRecorder keeps the last spanCap spans and decCap decision records
// in fixed-size rings. It implements both Probe (events are counted, not
// stored; decisions are retained) and SpanSink, so one recorder can be
// fanned into any probe or trace path. Safe for concurrent use.
type FlightRecorder struct {
	mu     sync.Mutex
	spans  ring[Span]
	decs   ring[DecisionRecord]
	events uint64 // OnEvent calls observed (not retained)
}

// ring is a fixed-capacity overwrite-oldest buffer.
type ring[T any] struct {
	buf   []T
	next  int    // index of the slot the next write lands in
	total uint64 // lifetime writes
}

func (r *ring[T]) push(v T) {
	if len(r.buf) == 0 {
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	r.total++
}

// snapshot returns the retained values oldest-first.
func (r *ring[T]) snapshot() []T {
	n := int(r.total)
	if uint64(n) != r.total || n > len(r.buf) {
		n = len(r.buf)
	}
	out := make([]T, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.buf[(r.next-n+i+len(r.buf))%len(r.buf)])
	}
	return out
}

// NewFlightRecorder builds a recorder retaining the last spanCap spans
// and decCap decision records (defaults when non-positive).
func NewFlightRecorder(spanCap, decCap int) *FlightRecorder {
	if spanCap <= 0 {
		spanCap = DefaultFlightSpans
	}
	if decCap <= 0 {
		decCap = DefaultFlightDecisions
	}
	return &FlightRecorder{
		spans: ring[Span]{buf: make([]Span, spanCap)},
		decs:  ring[DecisionRecord]{buf: make([]DecisionRecord, decCap)},
	}
}

// OnSpan implements SpanSink.
func (f *FlightRecorder) OnSpan(sp Span) {
	f.mu.Lock()
	f.spans.push(sp)
	f.mu.Unlock()
}

// OnEvent implements Probe; events are high-volume, so only a count is
// kept — the JSONL stream is the right sink for full event logs.
func (f *FlightRecorder) OnEvent(Event) {
	f.mu.Lock()
	f.events++
	f.mu.Unlock()
}

// OnDecision implements Probe.
func (f *FlightRecorder) OnDecision(d DecisionRecord) {
	f.mu.Lock()
	f.decs.push(d)
	f.mu.Unlock()
}

// FlightDecision wraps a retained DecisionRecord so the dump encodes it
// as a schema-v1 decision line — the representation already defined for
// these records, and the one that handles the infinite Until (JSON has
// no Inf; the wire form omits the field).
type FlightDecision struct {
	DecisionRecord
}

// MarshalJSON implements json.Marshaler with the JSONL stream's decision
// line appender, so the dump and the stream share one encoder.
func (d FlightDecision) MarshalJSON() ([]byte, error) {
	return appendDecisionLine(nil, d.DecisionRecord)
}

// FlightDump is a point-in-time snapshot of the recorder, shaped for
// direct JSON encoding by /debug/flight and the SIGQUIT handler.
type FlightDump struct {
	SpansTotal     uint64           `json:"spans_total"`     // spans ever recorded
	DecisionsTotal uint64           `json:"decisions_total"` // decisions ever recorded
	EventsTotal    uint64           `json:"events_total"`    // events observed (not retained)
	Spans          []Span           `json:"spans"`           // retained spans, oldest first
	Decisions      []FlightDecision `json:"decisions"`       // retained decisions, oldest first
}

// Snapshot copies the retained state oldest-first.
func (f *FlightRecorder) Snapshot() FlightDump {
	f.mu.Lock()
	defer f.mu.Unlock()
	raw := f.decs.snapshot()
	decs := make([]FlightDecision, len(raw))
	for i, d := range raw {
		decs[i] = FlightDecision{d}
	}
	return FlightDump{
		SpansTotal:     f.spans.total,
		DecisionsTotal: f.decs.total,
		EventsTotal:    f.events,
		Spans:          f.spans.snapshot(),
		Decisions:      decs,
	}
}
