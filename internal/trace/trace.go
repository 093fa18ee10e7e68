// Package trace records a simulation schedule — the run/idle/stall/sleep
// segments and the point events — and renders it as an ASCII Gantt chart
// or CSV. Its Recorder is an obs.Probe consumer, like the JSONL, metrics
// and flight-recorder sinks, and exists to make small scenarios (the
// paper's Figures 1 and 3) inspectable end to end.
package trace

import (
	"fmt"
	"math"
	"strings"

	"github.com/eadvfs/eadvfs/internal/obs"
)

// Segment is a maximal interval of constant processor activity.
type Segment struct {
	Start, End float64
	Mode       string // "run", "idle", "stall" or "sleep" (sim.Mode names)
	TaskID     int    // -1 when no job is attached
	JobSeq     int
	Level      int
}

// Event is a point occurrence: arrival, completion, early completion,
// miss or stall.
type Event struct {
	Time   float64
	Kind   obs.EventKind
	TaskID int
	JobSeq int
}

// Recorder accumulates segments and events during a run. It is an
// obs.Probe: attach it as sim.Config.Probe (or inside obs.Multi). One
// recorder observes one run and is not safe for concurrent use.
type Recorder struct {
	Segments []Segment
	Events   []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// OnEvent implements obs.Probe. Segments are coalesced with their
// predecessor when the activity is unchanged; arrivals, completions,
// early completions, misses and stalls are kept as point events;
// dispatch, fault and invariant events are dropped.
func (r *Recorder) OnEvent(ev obs.Event) {
	switch ev.Kind {
	case obs.KindSegment:
		r.addSegment(ev)
	case obs.KindArrival, obs.KindCompletion, obs.KindEarlyCompletion, obs.KindMiss, obs.KindStall:
		r.Events = append(r.Events, Event{Time: ev.Time, Kind: ev.Kind, TaskID: ev.TaskID, JobSeq: ev.Seq})
	}
}

// OnDecision implements obs.Probe; decision audits are not part of the
// schedule.
func (r *Recorder) OnDecision(obs.DecisionRecord) {}

func (r *Recorder) addSegment(ev obs.Event) {
	if n := len(r.Segments); n > 0 {
		last := &r.Segments[n-1]
		if last.Mode == ev.Mode && last.TaskID == ev.TaskID && last.JobSeq == ev.Seq &&
			(ev.Mode != modeRun || last.Level == ev.Level) &&
			math.Abs(last.End-ev.Start) < 1e-9 {
			last.End = ev.Time
			return
		}
	}
	r.Segments = append(r.Segments, Segment{
		Start: ev.Start, End: ev.Time, Mode: ev.Mode,
		TaskID: ev.TaskID, JobSeq: ev.Seq, Level: ev.Level,
	})
}

// modeRun is the segment mode of execution (sim.ModeRun's name).
const modeRun = "run"

// Gantt renders the schedule as one row per task plus an activity row,
// width columns spanning [0, horizon]. Run segments print the operating
// point digit; stalls print '!'; idle is blank.
func (r *Recorder) Gantt(horizon float64, width int) string {
	if horizon <= 0 || width < 10 {
		panic(fmt.Sprintf("trace: bad gantt spec horizon=%v width=%d", horizon, width))
	}
	ids := map[int]bool{}
	for _, s := range r.Segments {
		if s.TaskID >= 0 {
			ids[s.TaskID] = true
		}
	}
	var ordered []int
	for id := range ids {
		ordered = append(ordered, id)
	}
	// insertion sort — tiny n, keeps imports lean
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && ordered[j] < ordered[j-1]; j-- {
			ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
		}
	}

	col := func(t float64) int {
		c := int(float64(width) * t / horizon)
		if c >= width {
			c = width - 1
		}
		if c < 0 {
			c = 0
		}
		return c
	}

	var b strings.Builder
	for _, id := range ordered {
		row := []byte(strings.Repeat(".", width))
		for _, s := range r.Segments {
			if s.TaskID != id {
				continue
			}
			mark := byte('!')
			if s.Mode == modeRun {
				mark = byte('0' + s.Level%10)
			}
			for c := col(s.Start); c <= col(s.End-1e-12) && c < width; c++ {
				row[c] = mark
			}
		}
		// Overlay arrivals (^), completions (v) and misses (X).
		for _, e := range r.Events {
			if e.TaskID != id {
				continue
			}
			c := col(e.Time)
			switch e.Kind {
			case obs.KindArrival:
				if row[c] == '.' {
					row[c] = '^'
				}
			case obs.KindCompletion:
				row[c] = 'v'
			case obs.KindMiss:
				row[c] = 'X'
			}
		}
		fmt.Fprintf(&b, "task %-3d |%s|\n", id, string(row))
	}
	fmt.Fprintf(&b, "         +%s+\n", strings.Repeat("-", width))
	fmt.Fprintf(&b, "          0%*s\n", width-1, fmt.Sprintf("%g", horizon))
	return b.String()
}

// CSV renders the segments as start,end,mode,task,job,level rows.
func (r *Recorder) CSV() string {
	var b strings.Builder
	b.WriteString("start,end,mode,task,job,level\n")
	for _, s := range r.Segments {
		fmt.Fprintf(&b, "%g,%g,%s,%d,%d,%d\n", s.Start, s.End, s.Mode, s.TaskID, s.JobSeq, s.Level)
	}
	return b.String()
}

// BusyTime returns the total run time recorded, a cross-check against
// sim.Result.BusyTime.
func (r *Recorder) BusyTime() float64 {
	total := 0.0
	for _, s := range r.Segments {
		if s.Mode == modeRun {
			total += s.End - s.Start
		}
	}
	return total
}

// MissCount returns the number of miss events recorded.
func (r *Recorder) MissCount() int {
	n := 0
	for _, e := range r.Events {
		if e.Kind == obs.KindMiss {
			n++
		}
	}
	return n
}
