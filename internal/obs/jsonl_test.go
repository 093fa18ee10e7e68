package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// A stream containing every event kind and every reason code must
// round-trip through the validator.
func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	jw := NewJSONLWriter(&buf)
	for i, k := range KnownEventKinds() {
		jw.OnEvent(Event{Time: float64(i), Kind: k, TaskID: 1, Seq: i,
			Level: 2, Start: float64(i) - 0.5, Mode: "run", Detail: "d"})
	}
	for i, r := range KnownReasons() {
		jw.OnDecision(DecisionRecord{Time: float64(i), Policy: "ea-dvfs",
			TaskID: 1, Seq: i, Deadline: 16, Slack: 4, Stored: 24,
			Predicted: 8, Available: 32, S1: 4, S2: 12, Level: 0,
			Speed: 0.5, Until: 12, Reason: r})
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	want := len(KnownEventKinds()) + len(KnownReasons())
	n, err := CheckJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("validated %d lines, want %d", n, want)
	}
}

// An infinite "until" (run until the next event) is omitted from the wire
// form rather than encoded — JSON has no Inf.
func TestJSONLInfiniteUntilOmitted(t *testing.T) {
	var buf bytes.Buffer
	jw := NewJSONLWriter(&buf)
	jw.OnDecision(DecisionRecord{Time: 1, Policy: "lsa", TaskID: -1, Seq: -1,
		Level: -1, Until: math.Inf(1), Reason: ReasonIdleNoJob})
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "until") {
		t.Fatalf("infinite until must be omitted: %s", buf.String())
	}
	if _, err := CheckJSONL(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
}

// Conditional event fields only appear on the kinds that define them.
func TestJSONLConditionalFields(t *testing.T) {
	var buf bytes.Buffer
	jw := NewJSONLWriter(&buf)
	jw.OnEvent(Event{Time: 1, Kind: KindArrival, TaskID: 0, Seq: 0, Level: 3})
	jw.OnEvent(Event{Time: 2, Kind: KindSegment, TaskID: 0, Seq: 0, Level: 3, Start: 1.5, Mode: "run"})
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var arrival, segment map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &arrival); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &segment); err != nil {
		t.Fatal(err)
	}
	if _, ok := arrival["level"]; ok {
		t.Fatal("arrival must not carry a level")
	}
	if _, ok := segment["level"]; !ok {
		t.Fatal("segment must carry its level")
	}
	if _, ok := segment["start"]; !ok {
		t.Fatal("segment must carry its start")
	}
}

func TestCheckJSONLRejections(t *testing.T) {
	cases := []struct {
		name string
		line string
	}{
		{"not json", `nope`},
		{"wrong version", `{"v":2,"type":"event","t":1,"kind":"arrival","task":0,"seq":0}`},
		{"unknown type", `{"v":1,"type":"metric","t":1}`},
		{"unknown kind", `{"v":1,"type":"event","t":1,"kind":"teleport","task":0,"seq":0}`},
		{"unknown mode", `{"v":1,"type":"event","t":1,"kind":"segment","task":-1,"seq":-1,"level":0,"start":0,"mode":"bogus"}`},
		{"unknown reason", `{"v":1,"type":"decision","t":1,"policy":"p","task":0,"seq":0,"deadline":1,"slack":1,"stored":1,"predicted":0,"available":1,"s1":0,"s2":0,"level":0,"speed":1,"reason":"vibes"}`},
		{"missing policy", `{"v":1,"type":"decision","t":1,"task":0,"seq":0,"deadline":1,"slack":1,"stored":1,"predicted":0,"available":1,"s1":0,"s2":0,"level":0,"speed":1,"reason":"idle:no-job"}`},
		{"extra field", `{"v":1,"type":"event","t":1,"kind":"arrival","task":0,"seq":0,"surprise":true}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := CheckJSONL(strings.NewReader(tc.line + "\n")); err == nil {
				t.Fatalf("line %s must fail validation", tc.line)
			}
		})
	}
}

// CheckEvent and CheckDecision hold rules a JSONL line cannot break
// (JSON has no NaN), so they are checked on records directly.
func TestCheckEventAndDecision(t *testing.T) {
	seg := Event{Time: 1, Kind: KindSegment, TaskID: -1, Seq: -1, Mode: "run"}
	if err := CheckEvent(seg); err != nil {
		t.Fatalf("valid segment rejected: %v", err)
	}
	for name, e := range map[string]Event{
		"unknown kind":    {Time: 1, Kind: "teleport"},
		"unknown mode":    {Time: 1, Kind: KindSegment, Mode: "bogus"},
		"non-finite time": {Time: math.Inf(1), Kind: KindArrival},
	} {
		if CheckEvent(e) == nil {
			t.Errorf("%s: event %+v accepted", name, e)
		}
	}
	dec := DecisionRecord{Time: 1, Policy: "ea-dvfs", Slack: 2, Stored: 3, Available: 4, Until: math.Inf(1), Reason: ReasonIdleNoJob}
	if err := CheckDecision(dec); err != nil {
		t.Fatalf("valid decision rejected: %v", err)
	}
	for name, mutate := range map[string]func(*DecisionRecord){
		"unknown reason":       func(d *DecisionRecord) { d.Reason = "vibes" },
		"missing policy":       func(d *DecisionRecord) { d.Policy = "" },
		"non-finite time":      func(d *DecisionRecord) { d.Time = math.NaN() },
		"non-finite slack":     func(d *DecisionRecord) { d.Slack = math.Inf(-1) },
		"non-finite stored":    func(d *DecisionRecord) { d.Stored = math.NaN() },
		"non-finite available": func(d *DecisionRecord) { d.Available = math.Inf(1) },
	} {
		d := dec
		mutate(&d)
		if CheckDecision(d) == nil {
			t.Errorf("%s: decision %+v accepted", name, d)
		}
	}
}

func TestCheckJSONLEmptyAndBlankLines(t *testing.T) {
	if n, err := CheckJSONL(strings.NewReader("")); err != nil || n != 0 {
		t.Fatalf("empty stream: n=%d err=%v", n, err)
	}
	stream := "\n" + `{"v":1,"type":"event","t":1,"kind":"arrival","task":0,"seq":0}` + "\n\n"
	if n, err := CheckJSONL(strings.NewReader(stream)); err != nil || n != 1 {
		t.Fatalf("blank lines must be skipped: n=%d err=%v", n, err)
	}
}

// The first bad line reports its position and validation stops there.
func TestCheckJSONLReportsLineNumber(t *testing.T) {
	stream := `{"v":1,"type":"event","t":1,"kind":"arrival","task":0,"seq":0}` + "\n" +
		`{"v":1,"type":"event","t":2,"kind":"warp","task":0,"seq":0}` + "\n"
	n, err := CheckJSONL(strings.NewReader(stream))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want a line-2 error, got n=%d err=%v", n, err)
	}
	if n != 1 {
		t.Fatalf("one valid line before the failure, got %d", n)
	}
}
