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
// span lines "v":1.1, and an event or decision line must also pass
// CheckEvent or CheckDecision. The first malformed line fails the whole
// stream with its line number. Empty streams are valid (a run can emit
// nothing).
func CheckJSONL(r io.Reader) (int, error) {
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
			if err := CheckEvent(Event{Time: ev.T, Kind: ev.Kind, Mode: ev.Mode}); err != nil {
				return n, fmt.Errorf("obs: line %d: %w", lineNo, err)
			}
		case "decision":
			var d decisionLine
			if err := strictUnmarshal(raw, &d); err != nil {
				return n, fmt.Errorf("obs: line %d: bad decision: %w", lineNo, err)
			}
			rec := DecisionRecord{Time: d.T, Policy: d.Policy, Slack: d.Slack, Stored: d.Stored, Available: d.Available, Reason: d.Reason}
			if err := CheckDecision(rec); err != nil {
				return n, fmt.Errorf("obs: line %d: %w", lineNo, err)
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

// The closed vocabulary as sets, built once: CheckEvent and
// CheckDecision run on every record of a validated sweep.
var (
	knownKinds   = memberSet(KnownEventKinds())
	knownModes   = memberSet(append(KnownModes(), ""))
	knownReasons = memberSet(KnownReasons())
)

func memberSet[T comparable](members []T) map[T]bool {
	set := make(map[T]bool, len(members))
	for _, m := range members {
		set[m] = true
	}
	return set
}

// CheckEvent reports whether e lies within the closed event vocabulary:
// a kind in KnownEventKinds, a mode in KnownModes or none, and a finite
// time. CheckJSONL applies it to every event line, and eaexp's
// -validate-events probe to every event a sweep emits.
func CheckEvent(e Event) error {
	switch {
	case !knownKinds[e.Kind]:
		return fmt.Errorf("unknown event kind %q", e.Kind)
	case !knownModes[e.Mode]:
		return fmt.Errorf("event %q with unknown segment mode %q", e.Kind, e.Mode)
	case !finite(e.Time):
		return fmt.Errorf("event %q at non-finite time %v", e.Kind, e.Time)
	}
	return nil
}

// CheckDecision reports whether d lies within the closed decision-audit
// vocabulary: a reason in KnownReasons, a named policy, and a finite
// time, slack, stored and available energy.
func CheckDecision(d DecisionRecord) error {
	switch {
	case !knownReasons[d.Reason]:
		return fmt.Errorf("unknown reason code %q", d.Reason)
	case d.Policy == "":
		return fmt.Errorf("decision %q without policy", d.Reason)
	case !finite(d.Time) || !finite(d.Slack) || !finite(d.Stored) || !finite(d.Available):
		return fmt.Errorf("decision %q with a non-finite time, slack, stored or available energy", d.Reason)
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// strictUnmarshal rejects fields outside the schema struct, so a typo'd
// producer fails validation instead of silently passing.
func strictUnmarshal(raw []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}
