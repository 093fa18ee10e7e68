package obs

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"
)

// JSONLSchemaVersion is the structured-event stream schema version. Every
// line carries it as "v"; CheckJSONL rejects any other value.
//
// Schema v1: one JSON object per line, two line types.
//
//	{"v":1,"type":"event","t":<float>,"kind":<EventKind>,
//	 "task":<int>,"seq":<int>,
//	 "level":<int, dispatch/segment/fault only>,
//	 "start":<float, segment only>,"mode":<string, segment only>,
//	 "detail":<string, fault/invariant only>}
//
//	{"v":1,"type":"decision","t":<float>,"policy":<string>,
//	 "task":<int>,"seq":<int>,"deadline":<float>,"slack":<float>,
//	 "stored":<float>,"predicted":<float>,"available":<float>,
//	 "s1":<float>,"s2":<float>,"level":<int, -1 when idling>,
//	 "speed":<float>,"until":<float, omitted when +Inf>,
//	 "reason":<Reason>}
//
// Numeric fields are finite (an infinite "until" — "until the next event"
// — is omitted rather than encoded). Unknown kinds and reason codes are
// schema violations: the known sets are part of the schema.
//
// Schema v1.1 adds a third line type, the distributed-tracing span
// (DESIGN.md §15). Span lines carry "v":1.1 while event/decision lines
// keep "v":1, so a v1 stream remains valid byte for byte:
//
//	{"v":1.1,"type":"span","span":{"trace":<32 hex>,"id":<16 hex>,
//	 "parent":<16 hex, omitted for roots>,"name":<string>,
//	 "service":<string>,"start_unix_ns":<int>,"dur_ns":<int>,
//	 "attrs":{<string>:<string>, omitted when empty}}}
//
// Hex fields are exact-width lowercase; all-zero trace or span IDs are
// schema violations (they are invalid in W3C trace-context too).
const JSONLSchemaVersion = 1

// JSONLSpanVersion is the schema version carried by span lines.
const JSONLSpanVersion = 1.1

// eventLine is the schema-v1 wire form of an Event.
type eventLine struct {
	V      int       `json:"v"`
	Type   string    `json:"type"`
	T      float64   `json:"t"`
	Kind   EventKind `json:"kind"`
	Task   int       `json:"task"`
	Seq    int       `json:"seq"`
	Level  *int      `json:"level,omitempty"`
	Start  *float64  `json:"start,omitempty"`
	Mode   string    `json:"mode,omitempty"`
	Detail string    `json:"detail,omitempty"`
}

// decisionLine is the schema-v1 wire form of a DecisionRecord.
type decisionLine struct {
	V         int      `json:"v"`
	Type      string   `json:"type"`
	T         float64  `json:"t"`
	Policy    string   `json:"policy"`
	Task      int      `json:"task"`
	Seq       int      `json:"seq"`
	Deadline  float64  `json:"deadline"`
	Slack     float64  `json:"slack"`
	Stored    float64  `json:"stored"`
	Predicted float64  `json:"predicted"`
	Available float64  `json:"available"`
	S1        float64  `json:"s1"`
	S2        float64  `json:"s2"`
	Level     int      `json:"level"`
	Speed     float64  `json:"speed"`
	Until     *float64 `json:"until,omitempty"`
	Reason    Reason   `json:"reason"`
}

// spanLine is the schema-v1.1 wire form of a Span. The span body nests
// under "span" (rather than flattening) so its strict decoder and the
// X-Trace-Spans header share one representation.
type spanLine struct {
	V    float64 `json:"v"`
	Type string  `json:"type"`
	Span Span    `json:"span"`
}

// jsonlBlock is the write granularity of a JSONLWriter: lines collect in
// its buffer and reach the underlying writer in blocks of at least this
// many bytes (and on Flush), always ending on a line boundary.
const jsonlBlock = 64 << 10

// JSONLWriter is a Probe that streams schema-v1 lines to an io.Writer.
// Lines are appended atomically under a mutex, so one writer may be shared
// by the experiment harness's parallel runs (lines from concurrent runs
// interleave, each line stays intact). Call Flush before reading the
// output.
//
// Event and decision lines are built by hand (appendEventLine,
// appendDecisionLine) in exactly the bytes encoding/json gives their wire
// structs; span lines go through json.Marshal.
type JSONLWriter struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
	err error
}

// NewJSONLWriter wraps w in a buffered schema-v1 stream.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	// The slack past one block holds the line that crosses the threshold.
	return &JSONLWriter{w: w, buf: make([]byte, 0, jsonlBlock+4<<10)}
}

// OnEvent implements Probe.
func (jw *JSONLWriter) OnEvent(ev Event) {
	jw.mu.Lock()
	if jw.err == nil {
		jw.endLine(appendEventLine(jw.buf, ev))
	}
	jw.mu.Unlock()
}

// OnDecision implements Probe.
func (jw *JSONLWriter) OnDecision(d DecisionRecord) {
	jw.mu.Lock()
	if jw.err == nil {
		jw.endLine(appendDecisionLine(jw.buf, d))
	}
	jw.mu.Unlock()
}

// OnSpan implements SpanSink: spans interleave with events and decisions
// in the same stream as v1.1 lines.
func (jw *JSONLWriter) OnSpan(sp Span) {
	line, err := json.Marshal(&spanLine{V: JSONLSpanVersion, Type: "span", Span: sp})
	jw.mu.Lock()
	if jw.err == nil {
		jw.endLine(append(jw.buf, line...), err)
	}
	jw.mu.Unlock()
}

// endLine takes the buffer with one more line appended (or, when err is
// set, nothing appended), terminates the line and ships the buffer once
// it holds a block. Callers hold mu and have checked jw.err.
func (jw *JSONLWriter) endLine(buf []byte, err error) {
	jw.buf, jw.err = buf, err
	if err != nil {
		return
	}
	jw.buf = append(jw.buf, '\n')
	if len(jw.buf) >= jsonlBlock {
		jw.write()
	}
}

// write hands the buffered lines to the underlying writer. A failed write
// sticks and drops the buffer: the stream is broken from there on.
func (jw *JSONLWriter) write() {
	n, err := jw.w.Write(jw.buf)
	if err == nil && n < len(jw.buf) {
		err = io.ErrShortWrite
	}
	if err != nil && jw.err == nil {
		jw.err = err
	}
	jw.buf = jw.buf[:0]
}

// Flush writes the buffered lines and returns the first error
// encountered by any line or write. Lines buffered before a line that
// failed to encode are still written.
func (jw *JSONLWriter) Flush() error {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if len(jw.buf) > 0 {
		jw.write()
	}
	return jw.err
}

// appendEventLine appends the schema-v1 line of ev, without its newline:
// the bytes of json.Marshal of its eventLine. On error (a non-finite
// float) it returns b unchanged and the error json.Marshal reports.
func appendEventLine(b []byte, ev Event) ([]byte, error) {
	e := wireAppender{b: b}
	e.raw(`{"v":`)
	e.int(JSONLSchemaVersion)
	e.raw(`,"type":"event","t":`)
	e.float(ev.Time)
	e.raw(`,"kind":`)
	e.str(string(ev.Kind))
	e.raw(`,"task":`)
	e.int(ev.TaskID)
	e.raw(`,"seq":`)
	e.int(ev.Seq)
	switch ev.Kind {
	case KindDispatch, KindSegment, KindFault:
		e.raw(`,"level":`)
		e.int(ev.Level)
	}
	if ev.Kind == KindSegment {
		e.raw(`,"start":`)
		e.float(ev.Start)
	}
	if ev.Mode != "" {
		e.raw(`,"mode":`)
		e.str(ev.Mode)
	}
	if ev.Detail != "" {
		e.raw(`,"detail":`)
		e.str(ev.Detail)
	}
	e.raw("}")
	return e.done(len(b))
}

// appendDecisionLine appends the schema-v1 line of d, without its
// newline: the bytes of json.Marshal of its decisionLine. The infinite
// Until ("run until the next event") is omitted rather than encoded —
// JSON has no Inf — which is why the flight recorder dump uses this form
// too. On error it returns b unchanged, as appendEventLine does.
func appendDecisionLine(b []byte, d DecisionRecord) ([]byte, error) {
	e := wireAppender{b: b}
	e.raw(`{"v":`)
	e.int(JSONLSchemaVersion)
	e.raw(`,"type":"decision","t":`)
	e.float(d.Time)
	e.raw(`,"policy":`)
	e.str(d.Policy)
	e.raw(`,"task":`)
	e.int(d.TaskID)
	e.raw(`,"seq":`)
	e.int(d.Seq)
	e.raw(`,"deadline":`)
	e.float(d.Deadline)
	e.raw(`,"slack":`)
	e.float(d.Slack)
	e.raw(`,"stored":`)
	e.float(d.Stored)
	e.raw(`,"predicted":`)
	e.float(d.Predicted)
	e.raw(`,"available":`)
	e.float(d.Available)
	e.raw(`,"s1":`)
	e.float(d.S1)
	e.raw(`,"s2":`)
	e.float(d.S2)
	e.raw(`,"level":`)
	e.int(d.Level)
	e.raw(`,"speed":`)
	e.float(d.Speed)
	if !math.IsInf(d.Until, 0) {
		e.raw(`,"until":`)
		e.float(d.Until)
	}
	e.raw(`,"reason":`)
	e.str(string(d.Reason))
	e.raw("}")
	return e.done(len(b))
}

// wireAppender appends JSON values in encoding/json's exact bytes. The
// first value JSON cannot represent (a NaN or ±Inf float) sets err.
type wireAppender struct {
	b   []byte
	err error
}

// done returns the appended line, or the buffer cut back to start and
// the first error.
func (e *wireAppender) done(start int) ([]byte, error) {
	if e.err != nil {
		return e.b[:start], e.err
	}
	return e.b, nil
}

func (e *wireAppender) raw(s string) { e.b = append(e.b, s...) }

func (e *wireAppender) int(i int) { e.b = strconv.AppendInt(e.b, int64(i), 10) }

// float formats f as encoding/json does (appendFloat); a NaN or ±Inf
// sets the error json.Marshal reports and writes nothing.
func (e *wireAppender) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			_, e.err = json.Marshal(f)
		}
		return
	}
	if math.Abs(f) < 1<<53 && f == math.Trunc(f) && (f != 0 || !math.Signbit(f)) {
		// Below 2^53 the shortest form of an integral value is its integer
		// digits, which AppendInt writes without the shortest-digit search
		// (most times, deadlines and slacks in a stream are integral).
		e.b = strconv.AppendInt(e.b, int64(f), 10)
		return
	}
	e.b = appendFloat(e.b, f)
}

// str writes s verbatim when every byte is printable ASCII that
// encoding/json leaves alone; anything else (quotes, backslashes, the
// HTML-escaped <, > and &, control bytes, non-ASCII) goes through
// json.Marshal, which escapes it and replaces invalid UTF-8.
func (e *wireAppender) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}
