package obs

// Distributed tracing primitives for the sweep fabric (DESIGN.md §15).
//
// The model is deliberately tiny and dependency-free: a span is a named
// wall-clock interval with a 128-bit trace ID shared by every span of one
// sweep, a 64-bit span ID, and an optional parent link. Context crosses
// process boundaries as a W3C `traceparent` header (version 00 only), so
// any standards-compliant proxy or collector between eactl and easerve
// keeps the correlation intact.
//
// Spans follow the same philosophy as the Probe interface: producers hold
// a SpanSink and emission is nil-guarded at the call site via StartSpan,
// which returns a nil *ActiveSpan when the sink is nil. Every ActiveSpan
// method is safe on a nil receiver, so the disabled path is a pointer
// test — no allocation, no interface call.

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"time"
)

// TraceID is a 128-bit trace identifier shared by every span of one
// logical operation (one sweep, one request). The all-zero value is
// invalid, per W3C trace-context.
type TraceID [16]byte

// SpanID is a 64-bit span identifier, unique within a trace. The all-zero
// value is invalid and doubles as "no parent".
type SpanID [8]byte

// IsZero reports whether the trace ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String returns the 32-char lowercase hex form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports whether the span ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String returns the 16-char lowercase hex form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// MarshalText implements encoding.TextMarshaler (lowercase hex).
func (t TraceID) MarshalText() ([]byte, error) {
	b := make([]byte, 32)
	hex.Encode(b, t[:])
	return b, nil
}

// UnmarshalText parses the 32-char lowercase hex form. The all-zero ID is
// accepted here (it round-trips); validity is the caller's concern.
func (t *TraceID) UnmarshalText(b []byte) error {
	return unhex(t[:], b, "trace id")
}

// MarshalText implements encoding.TextMarshaler (lowercase hex).
func (s SpanID) MarshalText() ([]byte, error) {
	b := make([]byte, 16)
	hex.Encode(b, s[:])
	return b, nil
}

// UnmarshalText parses the 16-char lowercase hex form.
func (s *SpanID) UnmarshalText(b []byte) error {
	return unhex(s[:], b, "span id")
}

// unhex decodes exactly len(dst)*2 lowercase hex chars into dst.
func unhex(dst, src []byte, what string) error {
	if len(src) != 2*len(dst) {
		return fmt.Errorf("obs: %s must be %d hex chars, got %d", what, 2*len(dst), len(src))
	}
	for _, c := range src {
		// encoding/hex accepts uppercase; traceparent does not.
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return fmt.Errorf("obs: %s has non-lowercase-hex char %q", what, c)
		}
	}
	_, err := hex.Decode(dst, src)
	return err
}

// idSource hands out random IDs from a buffered crypto/rand block so a
// burst of spans does not mean a syscall per span.
var idSource struct {
	sync.Mutex
	buf [512]byte
	n   int // bytes of buf consumed
}

func randomID(dst []byte) {
	idSource.Lock()
	defer idSource.Unlock()
	for {
		if idSource.n == 0 || idSource.n+len(dst) > len(idSource.buf) {
			if _, err := rand.Read(idSource.buf[:]); err != nil {
				panic("obs: crypto/rand failed: " + err.Error())
			}
			idSource.n = 0
		}
		copy(dst, idSource.buf[idSource.n:idSource.n+len(dst)])
		idSource.n += len(dst)
		// The all-zero ID is reserved as invalid; redraw on the
		// astronomically unlikely hit.
		zero := true
		for _, b := range dst {
			if b != 0 {
				zero = false
				break
			}
		}
		if !zero {
			return
		}
	}
}

// NewTraceID returns a fresh random (non-zero) trace ID.
func NewTraceID() TraceID {
	var t TraceID
	randomID(t[:])
	return t
}

// NewSpanID returns a fresh random (non-zero) span ID.
func NewSpanID() SpanID {
	var s SpanID
	randomID(s[:])
	return s
}

// SpanContext is the propagated part of a span: enough to parent remote
// children and to serialize as a traceparent header.
type SpanContext struct {
	Trace   TraceID
	Span    SpanID
	Sampled bool
}

// Valid reports whether both IDs are non-zero.
func (sc SpanContext) Valid() bool { return !sc.Trace.IsZero() && !sc.Span.IsZero() }

// Traceparent renders the W3C header value:
// "00-<32 hex trace>-<16 hex span>-<2 hex flags>".
func (sc SpanContext) Traceparent() string {
	b := make([]byte, 0, 55)
	b = append(b, "00-"...)
	b = hex.AppendEncode(b, sc.Trace[:])
	b = append(b, '-')
	b = hex.AppendEncode(b, sc.Span[:])
	if sc.Sampled {
		b = append(b, "-01"...)
	} else {
		b = append(b, "-00"...)
	}
	return string(b)
}

// ParseTraceparent parses a W3C traceparent header value strictly:
// version 00, lowercase hex only, exact field widths, non-zero trace and
// span IDs. Anything else is an error — a malformed header means the
// request is served untraced, never half-traced.
func ParseTraceparent(s string) (SpanContext, error) {
	var sc SpanContext
	if len(s) != 55 {
		return sc, fmt.Errorf("obs: traceparent must be 55 chars, got %d", len(s))
	}
	if s[0] != '0' || s[1] != '0' {
		return sc, fmt.Errorf("obs: unsupported traceparent version %q", s[:2])
	}
	if s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return sc, fmt.Errorf("obs: traceparent field separators misplaced")
	}
	if err := unhex(sc.Trace[:], []byte(s[3:35]), "traceparent trace id"); err != nil {
		return SpanContext{}, err
	}
	if err := unhex(sc.Span[:], []byte(s[36:52]), "traceparent span id"); err != nil {
		return SpanContext{}, err
	}
	var flags [1]byte
	if err := unhex(flags[:], []byte(s[53:55]), "traceparent flags"); err != nil {
		return SpanContext{}, err
	}
	if sc.Trace.IsZero() {
		return SpanContext{}, fmt.Errorf("obs: traceparent trace id is all-zero")
	}
	if sc.Span.IsZero() {
		return SpanContext{}, fmt.Errorf("obs: traceparent span id is all-zero")
	}
	sc.Sampled = flags[0]&0x01 != 0
	return sc, nil
}

// Span is one completed wall-clock interval. Start carries the producing
// process's wall clock (workers and coordinator may disagree — the
// stitcher detects and flags skew); Duration is measured on that
// process's monotonic clock. Attrs carry small key/value details such as
// worker URL, retry ordinal, cache outcome, and sim-time phase
// boundaries.
type Span struct {
	Trace    TraceID
	ID       SpanID
	Parent   SpanID // zero = root
	Name     string
	Service  string // emitting component: "eactl", "easerve", "experiment", "sim"
	Start    time.Time
	Duration time.Duration
	Attrs    map[string]string
}

// End returns the span's wall-clock end time.
func (sp Span) End() time.Time { return sp.Start.Add(sp.Duration) }

// spanWire is the single JSON representation of a Span, shared by the
// JSONL exporter, the X-Trace-Spans response header and the flight-
// recorder dump. Start is integer unix nanoseconds so byte-identical
// re-encoding never depends on time.Time formatting.
type spanWire struct {
	Trace   TraceID           `json:"trace"`
	ID      SpanID            `json:"id"`
	Parent  string            `json:"parent,omitempty"`
	Name    string            `json:"name"`
	Service string            `json:"service"`
	StartNs int64             `json:"start_unix_ns"`
	DurNs   int64             `json:"dur_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// MarshalJSON implements json.Marshaler using the wire form above.
func (sp Span) MarshalJSON() ([]byte, error) {
	w := spanWire{
		Trace:   sp.Trace,
		ID:      sp.ID,
		Name:    sp.Name,
		Service: sp.Service,
		StartNs: sp.Start.UnixNano(),
		DurNs:   int64(sp.Duration),
		Attrs:   sp.Attrs,
	}
	if !sp.Parent.IsZero() {
		w.Parent = sp.Parent.String()
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler strictly: unknown fields are
// rejected, hex fields must be exact-width lowercase.
func (sp *Span) UnmarshalJSON(b []byte) error {
	var w spanWire
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return err
	}
	*sp = Span{
		Trace:    w.Trace,
		ID:       w.ID,
		Name:     w.Name,
		Service:  w.Service,
		Start:    time.Unix(0, w.StartNs),
		Duration: time.Duration(w.DurNs),
		Attrs:    w.Attrs,
	}
	if w.Parent != "" {
		if err := sp.Parent.UnmarshalText([]byte(w.Parent)); err != nil {
			return err
		}
	}
	return nil
}

// Validate checks the structural invariants a well-formed span record
// must satisfy; CheckJSONL applies it to every span line.
func (sp Span) Validate() error {
	if sp.Trace.IsZero() {
		return fmt.Errorf("obs: span trace id is all-zero")
	}
	if sp.ID.IsZero() {
		return fmt.Errorf("obs: span id is all-zero")
	}
	if sp.ID == sp.Parent {
		return fmt.Errorf("obs: span %s is its own parent", sp.ID)
	}
	if sp.Name == "" {
		return fmt.Errorf("obs: span %s has empty name", sp.ID)
	}
	if sp.Service == "" {
		return fmt.Errorf("obs: span %s has empty service", sp.ID)
	}
	if sp.Duration < 0 {
		return fmt.Errorf("obs: span %s has negative duration %d", sp.ID, sp.Duration)
	}
	return nil
}

// SpanSink receives completed spans. Implementations must be safe for
// concurrent use; OnSpan must not retain or mutate Attrs after returning
// unless it owns the copy.
type SpanSink interface {
	OnSpan(Span)
}

// TraceCarrier is implemented by probes or sinks that know the span
// context their spans should be parented under. The engine and the
// experiment runner ask their Probe/SpanSink for a parent this way, so
// no new field threads through sim.Config.
type TraceCarrier interface {
	TraceParent() SpanContext
}

// SpanParentOf extracts a parent span context from v if it carries one
// (see TraceCarrier); otherwise it returns the zero (invalid) context.
func SpanParentOf(v any) SpanContext {
	if tc, ok := v.(TraceCarrier); ok {
		return tc.TraceParent()
	}
	return SpanContext{}
}

// ActiveSpan is an in-flight span. Obtain one from StartSpan; call End
// exactly once to emit it. A nil *ActiveSpan (tracing disabled) is valid:
// every method is a no-op, so call sites need no guards.
type ActiveSpan struct {
	sink  SpanSink
	span  Span
	ended bool
}

// StartSpan begins a span under parent (a fresh trace when parent is
// invalid) and returns nil when sink is nil — the entire disabled path is
// this one pointer comparison.
func StartSpan(sink SpanSink, service, name string, parent SpanContext) *ActiveSpan {
	if sink == nil {
		return nil
	}
	a := &ActiveSpan{sink: sink}
	a.span.Name = name
	a.span.Service = service
	if parent.Valid() {
		a.span.Trace = parent.Trace
		a.span.Parent = parent.Span
	} else {
		a.span.Trace = NewTraceID()
	}
	a.span.ID = NewSpanID()
	a.span.Start = time.Now()
	return a
}

// Context returns the propagation context for parenting children or
// injecting a traceparent header. Zero (invalid) on a nil receiver.
func (a *ActiveSpan) Context() SpanContext {
	if a == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: a.span.Trace, Span: a.span.ID, Sampled: true}
}

// SetAttr records a string attribute. No-op on a nil receiver or after End.
func (a *ActiveSpan) SetAttr(k, v string) {
	if a == nil || a.ended {
		return
	}
	if a.span.Attrs == nil {
		a.span.Attrs = make(map[string]string, 4)
	}
	a.span.Attrs[k] = v
}

// SetInt records an integer attribute. The nil/ended check precedes the
// formatting: a disabled span must not pay the strconv allocation.
func (a *ActiveSpan) SetInt(k string, v int64) {
	if a == nil || a.ended {
		return
	}
	a.SetAttr(k, strconv.FormatInt(v, 10))
}

// SetFloat records a float attribute ('g' format, full precision).
func (a *ActiveSpan) SetFloat(k string, v float64) {
	if a == nil || a.ended {
		return
	}
	a.SetAttr(k, strconv.FormatFloat(v, 'g', -1, 64))
}

// SetBool records a boolean attribute.
func (a *ActiveSpan) SetBool(k string, v bool) {
	if a == nil || a.ended {
		return
	}
	a.SetAttr(k, strconv.FormatBool(v))
}

// End completes the span and hands it to the sink. Idempotent; no-op on
// a nil receiver.
func (a *ActiveSpan) End() {
	if a == nil || a.ended {
		return
	}
	a.ended = true
	a.span.Duration = time.Since(a.span.Start)
	a.sink.OnSpan(a.span)
}

// SpanHeader is the HTTP response header a traced easerve worker uses to
// ship its request's spans back to the coordinator. Spans travel in a
// header, never in the body, because cached response bodies are
// byte-identical by contract (DESIGN.md §12) and tracing must not change
// a response's cache identity.
const SpanHeader = "X-Trace-Spans"

// EncodeSpanHeader renders spans as the SpanHeader value:
// base64(JSON array of span wire forms). Returns "" for no spans.
func EncodeSpanHeader(spans []Span) string {
	if len(spans) == 0 {
		return ""
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return "" // spans marshal from plain values; unreachable in practice
	}
	return base64.StdEncoding.EncodeToString(b)
}

// DecodeSpanHeader parses an EncodeSpanHeader value. An empty value
// yields no spans and no error.
func DecodeSpanHeader(v string) ([]Span, error) {
	if v == "" {
		return nil, nil
	}
	b, err := base64.StdEncoding.DecodeString(v)
	if err != nil {
		return nil, fmt.Errorf("obs: span header: %w", err)
	}
	var spans []Span
	if err := json.Unmarshal(b, &spans); err != nil {
		return nil, fmt.Errorf("obs: span header: %w", err)
	}
	return spans, nil
}

// spanCtxKey carries a SpanContext through a context.Context across the
// transport boundary (fabric injects, HTTPTransport reads).
type spanCtxKey struct{}

// ContextWithSpan returns a context carrying sc for downstream
// propagation (e.g. header injection in HTTPTransport.Do).
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanFromContext returns the span context stored by ContextWithSpan and
// whether one was present and valid.
func SpanFromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc, ok && sc.Valid()
}
