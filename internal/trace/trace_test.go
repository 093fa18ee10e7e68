package trace

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/sched"
	"github.com/eadvfs/eadvfs/internal/sim"
)

func runTraced(t *testing.T, policy sched.Policy) (*Recorder, *sim.Result) {
	t.Helper()
	rec := NewRecorder()
	cfg := paperScenario(t, "fig1", "lsa")
	cfg.Policy = policy
	cfg.Probe = rec
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rec, res
}

func TestRecorderCoalesces(t *testing.T) {
	rec, res := runTraced(t, sched.LSA{})
	// LSA: idle then one full-speed run per task — the run segments for a
	// task must be contiguous single segments, not per-unit fragments.
	runs := 0
	for _, s := range rec.Segments {
		if s.Mode == sim.ModeRun.String() {
			runs++
			if s.End <= s.Start {
				t.Fatalf("degenerate segment %+v", s)
			}
		}
	}
	if runs > 4 {
		t.Fatalf("run segments not coalesced: %d", runs)
	}
	if math.Abs(rec.BusyTime()-res.BusyTime) > 1e-6 {
		t.Fatalf("trace busy %v != result busy %v", rec.BusyTime(), res.BusyTime)
	}
}

func TestRecorderEvents(t *testing.T) {
	rec, res := runTraced(t, sched.LSA{})
	arrivals, completions := 0, 0
	for _, e := range rec.Events {
		switch e.Kind {
		case "arrival":
			arrivals++
		case "completion":
			completions++
		}
	}
	if arrivals != 2 {
		t.Fatalf("arrivals = %d", arrivals)
	}
	if completions != res.Miss.Finished {
		t.Fatalf("completions %d != finished %d", completions, res.Miss.Finished)
	}
	if rec.MissCount() != res.Miss.Missed {
		t.Fatalf("trace misses %d != result %d", rec.MissCount(), res.Miss.Missed)
	}
}

// The recorder keeps exactly the schedule: segments (coalesced) and the
// arrival, completion, early-completion, miss and stall points. Dispatch,
// fault and invariant events and decision audits are dropped.
func TestRecorderFiltersProbeStream(t *testing.T) {
	rec := NewRecorder()
	var p obs.Probe = rec
	p.OnDecision(obs.DecisionRecord{Time: 0, TaskID: 1, Reason: obs.ReasonIdleRecharge})
	for _, ev := range []obs.Event{
		{Time: 0, Kind: obs.KindArrival, TaskID: 1, Seq: 0},
		{Time: 0, Kind: obs.KindDispatch, TaskID: 1, Seq: 0, Level: 2},
		{Time: 1, Kind: obs.KindSegment, TaskID: 1, Seq: 0, Start: 0, Mode: "run", Level: 2},
		{Time: 2, Kind: obs.KindSegment, TaskID: 1, Seq: 0, Start: 1, Mode: "run", Level: 2},
		{Time: 2, Kind: obs.KindFault, TaskID: -1, Seq: -1, Detail: "dvfs-clamp"},
		{Time: 2, Kind: obs.KindStall, TaskID: 1, Seq: 0},
		{Time: 3, Kind: obs.KindSegment, TaskID: 1, Seq: 0, Start: 2, Mode: "stall", Level: 2},
		{Time: 3, Kind: obs.KindInvariant, TaskID: -1, Seq: -1, Detail: "store-bounds"},
		{Time: 4, Kind: obs.KindCompletion, TaskID: 1, Seq: 0},
		{Time: 4, Kind: obs.KindEarlyCompletion, TaskID: 1, Seq: 0},
		{Time: 5, Kind: obs.KindMiss, TaskID: 2, Seq: 3},
	} {
		p.OnEvent(ev)
	}
	wantSegs := []Segment{
		{Start: 0, End: 2, Mode: "run", TaskID: 1, JobSeq: 0, Level: 2},
		{Start: 2, End: 3, Mode: "stall", TaskID: 1, JobSeq: 0, Level: 2},
	}
	if len(rec.Segments) != len(wantSegs) {
		t.Fatalf("segments = %+v, want %+v", rec.Segments, wantSegs)
	}
	for i := range wantSegs {
		if rec.Segments[i] != wantSegs[i] {
			t.Fatalf("segment %d = %+v, want %+v", i, rec.Segments[i], wantSegs[i])
		}
	}
	var kinds []obs.EventKind
	for _, e := range rec.Events {
		kinds = append(kinds, e.Kind)
	}
	want := []obs.EventKind{obs.KindArrival, obs.KindStall, obs.KindCompletion, obs.KindEarlyCompletion, obs.KindMiss}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("event kinds = %v, want %v", kinds, want)
	}
	if last := rec.Events[len(rec.Events)-1]; last.TaskID != 2 || last.JobSeq != 3 {
		t.Fatalf("miss event = %+v, want task 2 job 3", last)
	}
}

func TestGanttRendering(t *testing.T) {
	rec, _ := runTraced(t, sched.LSA{})
	g := rec.Gantt(25, 50)
	if !strings.Contains(g, "task 1") || !strings.Contains(g, "task 2") {
		t.Fatalf("gantt missing task rows:\n%s", g)
	}
	// τ2 misses under LSA: an X must appear in its row.
	var tau2row string
	for _, line := range strings.Split(g, "\n") {
		if strings.HasPrefix(line, "task 2") {
			tau2row = line
		}
	}
	if !strings.Contains(tau2row, "X") {
		t.Fatalf("missed job not marked:\n%s", g)
	}
	// τ1 runs at the max level (digit '1' for the two-speed CPU).
	if !strings.Contains(g, "1") {
		t.Fatalf("run level digits missing:\n%s", g)
	}
}

func TestGanttValidation(t *testing.T) {
	rec := NewRecorder()
	for i, f := range []func(){
		func() { rec.Gantt(0, 50) },
		func() { rec.Gantt(10, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestCSVOutput(t *testing.T) {
	rec, _ := runTraced(t, sched.LSA{})
	csv := rec.CSV()
	if !strings.HasPrefix(csv, "start,end,mode,task,job,level\n") {
		t.Fatalf("csv header wrong: %q", csv[:40])
	}
	if strings.Count(csv, "\n") < 3 {
		t.Fatalf("csv has too few rows:\n%s", csv)
	}
	if !strings.Contains(csv, "run") {
		t.Fatal("csv missing run segments")
	}
}

func TestSegmentsCoverHorizonContiguously(t *testing.T) {
	rec, _ := runTraced(t, sched.LSA{})
	// Segments must tile [0, horizon] without gaps or overlaps.
	prevEnd := 0.0
	for i, s := range rec.Segments {
		if math.Abs(s.Start-prevEnd) > 1e-9 {
			t.Fatalf("segment %d starts at %v, previous ended %v", i, s.Start, prevEnd)
		}
		prevEnd = s.End
	}
	if math.Abs(prevEnd-25) > 1e-9 {
		t.Fatalf("segments end at %v, horizon 25", prevEnd)
	}
}

// edfPolicy avoids an import cycle-free dependency on sched in multiple
// test files.
func edfPolicy() sched.Policy { return sched.EDF{} }
