package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// CheckJSONL validates a schema-v1/v1.1 stream line by line and returns
// the number of valid lines: event and decision lines must carry "v":1,
// span lines "v":1.1. The first malformed line fails the whole stream
// with its line number. Empty streams are valid (a run can emit nothing).
func CheckJSONL(r io.Reader) (int, error) {
	knownKinds := make(map[EventKind]bool)
	for _, k := range KnownEventKinds() {
		knownKinds[k] = true
	}
	knownReasons := make(map[Reason]bool)
	for _, rs := range KnownReasons() {
		knownReasons[rs] = true
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	n := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var head struct {
			V    float64 `json:"v"`
			Type string  `json:"type"`
		}
		if err := json.Unmarshal(raw, &head); err != nil {
			return n, fmt.Errorf("obs: line %d: not a JSON object: %w", lineNo, err)
		}
		wantV := float64(JSONLSchemaVersion)
		if head.Type == "span" {
			wantV = JSONLSpanVersion
		}
		if head.V != wantV {
			return n, fmt.Errorf("obs: line %d: schema version %v, want %v for %q lines", lineNo, head.V, wantV, head.Type)
		}
		switch head.Type {
		case "event":
			var ev eventLine
			if err := strictUnmarshal(raw, &ev); err != nil {
				return n, fmt.Errorf("obs: line %d: bad event: %w", lineNo, err)
			}
			if !knownKinds[ev.Kind] {
				return n, fmt.Errorf("obs: line %d: unknown event kind %q", lineNo, ev.Kind)
			}
			if math.IsNaN(ev.T) || math.IsInf(ev.T, 0) {
				return n, fmt.Errorf("obs: line %d: non-finite time", lineNo)
			}
		case "decision":
			var d decisionLine
			if err := strictUnmarshal(raw, &d); err != nil {
				return n, fmt.Errorf("obs: line %d: bad decision: %w", lineNo, err)
			}
			if !knownReasons[d.Reason] {
				return n, fmt.Errorf("obs: line %d: unknown reason code %q", lineNo, d.Reason)
			}
			if d.Policy == "" {
				return n, fmt.Errorf("obs: line %d: decision without policy", lineNo)
			}
			for _, f := range []float64{d.T, d.Slack, d.Stored, d.Available} {
				if math.IsNaN(f) || math.IsInf(f, 0) {
					return n, fmt.Errorf("obs: line %d: non-finite numeric field", lineNo)
				}
			}
		case "span":
			var sl spanLine
			if err := strictUnmarshal(raw, &sl); err != nil {
				return n, fmt.Errorf("obs: line %d: bad span: %w", lineNo, err)
			}
			if err := sl.Span.Validate(); err != nil {
				return n, fmt.Errorf("obs: line %d: %w", lineNo, err)
			}
		default:
			return n, fmt.Errorf("obs: line %d: unknown line type %q", lineNo, head.Type)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return n, fmt.Errorf("obs: reading stream: %w", err)
	}
	return n, nil
}

// strictUnmarshal rejects fields outside the schema struct, so a typo'd
// producer fails validation instead of silently passing.
func strictUnmarshal(raw []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}
