package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/iotest"
)

// eventWire and decisionWire build the schema-v1 wire structs the
// hand-written appenders must match byte for byte: json.Marshal of their
// results is the oracle of FuzzJSONLWire.
func eventWire(ev Event) eventLine {
	line := eventLine{
		V: JSONLSchemaVersion, Type: "event",
		T: ev.Time, Kind: ev.Kind, Task: ev.TaskID, Seq: ev.Seq,
		Mode: ev.Mode, Detail: ev.Detail,
	}
	switch ev.Kind {
	case KindDispatch, KindSegment, KindFault:
		lv := ev.Level
		line.Level = &lv
	}
	if ev.Kind == KindSegment {
		st := ev.Start
		line.Start = &st
	}
	return line
}

func decisionWire(d DecisionRecord) decisionLine {
	line := decisionLine{
		V: JSONLSchemaVersion, Type: "decision",
		T: d.Time, Policy: d.Policy, Task: d.TaskID, Seq: d.Seq,
		Deadline: d.Deadline, Slack: d.Slack,
		Stored: d.Stored, Predicted: d.Predicted, Available: d.Available,
		S1: d.S1, S2: d.S2, Level: d.Level, Speed: d.Speed,
		Reason: d.Reason,
	}
	if !math.IsInf(d.Until, 0) {
		u := d.Until
		line.Until = &u
	}
	return line
}

// leadEvent is a valid line written ahead of every fuzzed record, so a
// record that fails must leave the bytes before it untouched.
var leadEvent = Event{Time: 0.5, Kind: KindArrival, TaskID: 1, Seq: 2}

// checkWire feeds emit's one record to a fresh writer after leadEvent and
// compares the stream with the oracle: leadEvent's line, then want plus a
// newline, or — when the oracle failed with wantErr — nothing more and
// the same error from Flush.
func checkWire(t *testing.T, what string, want []byte, wantErr error, emit func(*JSONLWriter)) {
	t.Helper()
	lead, err := json.Marshal(eventWire(leadEvent))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	jw := NewJSONLWriter(&buf)
	jw.OnEvent(leadEvent)
	emit(jw)
	err = jw.Flush()
	wantBytes := append(append([]byte(nil), lead...), '\n')
	if wantErr == nil {
		wantBytes = append(append(wantBytes, want...), '\n')
	}
	if !bytes.Equal(buf.Bytes(), wantBytes) {
		t.Fatalf("%s: stream differs from encoding/json\n got: %q\nwant: %q", what, buf.Bytes(), wantBytes)
	}
	switch {
	case wantErr == nil && err != nil:
		t.Fatalf("%s: Flush = %v, want nil", what, err)
	case wantErr != nil && (err == nil || err.Error() != wantErr.Error()):
		t.Fatalf("%s: Flush = %v, want %v", what, err, wantErr)
	}
}

// FuzzJSONLWire checks the hand-written event and decision appenders
// against encoding/json on arbitrary field values: every byte of a line
// must equal json.Marshal of its wire struct, and a record the oracle
// cannot encode (a NaN or ±Inf field) must fail the writer with the same
// error and emit nothing.
func FuzzJSONLWire(f *testing.F) {
	floats := []float64{
		0, math.Copysign(0, -1), 5e-324, -2.2250738585072014e-308, 1e-7, -1e-6,
		9.999999e-7, 1e21, -1e21, 999999999999999868928, 123456789e-20,
		1e-300, 1.5e300, 0.1, 16, -3.25, math.NaN(), math.Inf(1), math.Inf(-1),
		-123456789, 1 << 53, 1<<53 - 1, -(1<<53 + 2), 1 << 60, 1e16, 4.5e15 + 0.5,
	}
	strs := []string{
		"", "ea-dvfs", "<>&", `say "hi"`, `back\slash`, "\x00\x01\n\t\x1f\x7f",
		"\xff\xfe bad utf-8", "line\u2028sep\u2029", "héllo", "dvfs-clamp",
	}
	kinds := KnownEventKinds()
	for i, x := range floats {
		s := strs[i%len(strs)]
		// x lands in a different field of each seed; Until sees every value.
		fs := [10]float64{1, 2, 3, 4, 5, 6, 7, 8, 0.5, 9}
		fs[i%len(fs)] = x
		f.Add(uint8(i%(len(kinds)+1)), string(kinds[i%len(kinds)]), s, strs[(i+3)%len(strs)], s,
			fs[0], fs[1], fs[2], fs[3], fs[4], fs[5], fs[6], fs[7], fs[8], x, i-3, i, i%5-1)
	}
	f.Fuzz(func(t *testing.T, pick uint8, kind, mode, detail, text string,
		time, start, slack, stored, predicted, available, s1, s2, speed, until float64,
		task, seq, level int) {
		ev := Event{
			Time: time, Kind: EventKind(kind), TaskID: task, Seq: seq,
			Level: level, Start: start, Mode: mode, Detail: detail,
		}
		if int(pick) < len(kinds) {
			ev.Kind = kinds[pick] // reach the kinds with conditional fields
		}
		want, wantErr := json.Marshal(eventWire(ev))
		checkWire(t, "event", want, wantErr, func(jw *JSONLWriter) { jw.OnEvent(ev) })

		d := DecisionRecord{
			Time: time, Policy: text, TaskID: task, Seq: seq,
			Deadline: start, Slack: slack, Stored: stored, Predicted: predicted,
			Available: available, S1: s1, S2: s2, Level: level, Speed: speed,
			Until: until, Reason: Reason(detail),
		}
		want, wantErr = json.Marshal(decisionWire(d))
		checkWire(t, "decision", want, wantErr, func(jw *JSONLWriter) { jw.OnDecision(d) })
	})
}

// A NaN field stops the stream at its line: the lines before it are
// written unchanged, nothing after it is, and Flush reports the failure.
func TestJSONLNaNStopsStream(t *testing.T) {
	good := DecisionRecord{Time: 1, Policy: "ea-dvfs", TaskID: 0, Seq: 0,
		Deadline: 10, Slack: 9, Stored: 24, Predicted: 8, Available: 32,
		S1: 4, S2: 6, Level: 2, Speed: 0.5, Until: 4, Reason: ReasonStretchSlackRich}
	bad := good
	bad.Available = math.NaN()

	var want []byte
	for i := 0; i < 3; i++ {
		line, err := json.Marshal(decisionWire(good))
		if err != nil {
			t.Fatal(err)
		}
		want = append(append(want, line...), '\n')
	}
	var buf bytes.Buffer
	jw := NewJSONLWriter(&buf)
	for i := 0; i < 3; i++ {
		jw.OnDecision(good)
	}
	jw.OnDecision(bad)
	jw.OnDecision(good)
	jw.OnEvent(leadEvent)
	if err := jw.Flush(); err == nil {
		t.Fatal("Flush after a NaN line returned nil")
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("stream before the NaN line changed:\n got: %q\nwant: %q", buf.Bytes(), want)
	}
}

// failWriter fails every Write.
type failWriter struct{ err error }

func (w failWriter) Write([]byte) (int, error) { return 0, w.err }

// A writer that fails on its first Write surfaces on Flush.
func TestJSONLWriteErrorSurfacesOnFlush(t *testing.T) {
	boom := errors.New("boom")
	jw := NewJSONLWriter(failWriter{boom})
	jw.OnEvent(leadEvent)
	if err := jw.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush = %v, want %v", err, boom)
	}
	jw.OnEvent(leadEvent)
	if err := jw.Flush(); !errors.Is(err, boom) {
		t.Fatalf("second Flush = %v, want the sticky %v", err, boom)
	}
}

// chunkWriter records the byte slices handed to each Write call.
type chunkWriter struct{ chunks [][]byte }

func (w *chunkWriter) Write(p []byte) (int, error) {
	w.chunks = append(w.chunks, append([]byte(nil), p...))
	return len(p), nil
}

// Lines reach the underlying writer in whole 64 KiB blocks: every Write
// but the one from Flush carries at least a block, each ends on a line
// boundary, and the stream read back one byte at a time validates.
func TestJSONLBlocksEndOnLineBoundaries(t *testing.T) {
	var w chunkWriter
	jw := NewJSONLWriter(&w)
	lines := 0
	for i := 0; i < 3000; i++ {
		jw.OnEvent(Event{Time: float64(i), Kind: KindSegment, TaskID: i % 7, Seq: i,
			Level: i % 4, Start: float64(i) - 0.25, Mode: "run"})
		jw.OnDecision(DecisionRecord{Time: float64(i) + 1e-7, Policy: "ea-dvfs<&>",
			TaskID: i % 7, Seq: i, Deadline: float64(i) + 20, Slack: 20,
			Stored: 1.0 / 3, Predicted: 1e21, Available: 2.5e-9, S1: 1, S2: 2,
			Level: i % 4, Speed: 0.75, Until: math.Inf(1), Reason: ReasonStretchSlackRich})
		lines += 2
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	var all []byte
	for i, c := range w.chunks {
		if c[len(c)-1] != '\n' {
			t.Fatalf("write %d of %d splits a line: ends in %q", i, len(w.chunks), c[len(c)-20:])
		}
		if i < len(w.chunks)-1 && len(c) < jsonlBlock {
			t.Fatalf("write %d of %d carries %d bytes, less than a block", i, len(w.chunks), len(c))
		}
		all = append(all, c...)
	}
	if len(all) <= 200<<10 {
		t.Fatalf("stream is %d bytes, want more than 200 KiB", len(all))
	}
	n, err := CheckJSONL(iotest.OneByteReader(bytes.NewReader(all)))
	if err != nil {
		t.Fatal(err)
	}
	if n != lines {
		t.Fatalf("validated %d lines, want %d", n, lines)
	}
}

// The flight recorder dump encodes decisions with the stream's appender;
// its bytes must equal the form it had when it marshaled the wire struct.
func TestFlightDecisionMatchesWireForm(t *testing.T) {
	decs := []DecisionRecord{
		{Time: 3, Policy: "lsa", TaskID: -1, Seq: -1, Level: -1, Until: math.Inf(1), Reason: ReasonIdleNoJob},
		{Time: 1e-7, Policy: "p<&> ", TaskID: 2, Seq: 9, Deadline: 1e21, Slack: -0.5,
			Stored: 5e-324, Predicted: 123456789e-20, Available: 1, S1: 2, S2: 3,
			Level: 1, Speed: 0.5, Until: 7, Reason: ReasonStretchReclaimed},
	}
	fr := NewFlightRecorder(1, len(decs))
	for _, d := range decs {
		want, err := json.Marshal(decisionWire(d))
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(FlightDecision{d})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("flight decision\n got: %s\nwant: %s", got, want)
		}
		fr.OnDecision(d)
	}
	got, err := json.Marshal(fr.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	wire := make([]decisionLine, len(decs))
	for i, d := range decs {
		wire[i] = decisionWire(d)
	}
	want, err := json.Marshal(struct {
		SpansTotal     uint64         `json:"spans_total"`
		DecisionsTotal uint64         `json:"decisions_total"`
		EventsTotal    uint64         `json:"events_total"`
		Spans          []Span         `json:"spans"`
		Decisions      []decisionLine `json:"decisions"`
	}{DecisionsTotal: uint64(len(decs)), Spans: []Span{}, Decisions: wire})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("flight dump\n got: %s\nwant: %s", got, want)
	}
	if strings.Contains(string(got), "Inf") {
		t.Fatalf("flight dump encodes an infinite until: %s", got)
	}
}
