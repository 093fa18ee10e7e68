package sim

import (
	"fmt"
	"math"
	"testing"

	"github.com/eadvfs/eadvfs/internal/core"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/sched"
)

// auditPhase is a run of consecutive decision records with the same job,
// reason and level — the shape a lazy policy's re-evaluations collapse to.
type auditPhase struct {
	taskID, seq int
	reason      obs.Reason
	level       int
	first       obs.DecisionRecord
}

func compressAudit(decs []obs.DecisionRecord) []auditPhase {
	var out []auditPhase
	for _, d := range decs {
		if n := len(out); n > 0 {
			p := &out[n-1]
			if p.taskID == d.TaskID && p.seq == d.Seq && p.reason == d.Reason && p.level == d.Level {
				continue
			}
		}
		out = append(out, auditPhase{taskID: d.TaskID, seq: d.Seq,
			reason: d.Reason, level: d.Level, first: d})
	}
	return out
}

// Golden decision audit for the paper's §2/Figure 1 scenario under
// EA-DVFS: the walkthrough's narrative, as reason codes. The scheduler
// computes s1 = 4 (EC(0) = 24 is 8 short of τ1's 32-unit full-speed cost;
// at P_s = 0.5 the deficit takes 8 time units to harvest... but waiting
// also shortens the job's own recharge window — the fixed point lands at
// s1 = 4) and s2 = 16 − 32/8 = 12, idles to s1, then stretches τ1 at the
// slow operating point until s2. τ2 repeats the same pattern inside its
// own window. Both deadlines are met.
func TestFig1EADVFSAuditGolden(t *testing.T) {
	rec := obs.NewRecorder()
	cfg := fig1Config(core.NewEADVFS())
	cfg.Probe = rec
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Miss.Missed != 0 || res.Miss.Finished != 2 {
		t.Fatalf("EA-DVFS outcome = %+v, want both finished", res.Miss)
	}

	phases := compressAudit(rec.Decisions())
	want := []struct {
		taskID int
		reason obs.Reason
		level  int
	}{
		{1, obs.ReasonIdleRecharge, -1},    // wait for s1 = 4
		{1, obs.ReasonStretchSlackRich, 0}, // stretch τ1 at the slow point
		{2, obs.ReasonIdleRecharge, -1},    // τ2 waits for its own s1
		{2, obs.ReasonStretchSlackRich, 0}, // then stretches too
		{-1, obs.ReasonIdleNoJob, -1},      // queue drained
	}
	if len(phases) != len(want) {
		t.Fatalf("audit has %d phases, want %d: %+v", len(phases), len(want), phases)
	}
	for i, w := range want {
		p := phases[i]
		if p.taskID != w.taskID || p.reason != w.reason || p.level != w.level {
			t.Fatalf("phase %d = task %d %s level %d, want task %d %s level %d",
				i, p.taskID, p.reason, p.level, w.taskID, w.reason, w.level)
		}
	}

	// The paper's instants for τ1: s1 = 4, s2 = 12.
	idle := phases[0].first
	if math.Abs(idle.S1-4) > 1e-6 || math.Abs(idle.S2-12) > 1e-6 {
		t.Fatalf("τ1 audit: s1=%v s2=%v, want 4 and 12", idle.S1, idle.S2)
	}
	if math.Abs(idle.Until-4) > 1e-6 {
		t.Fatalf("τ1 idles until %v, want s1 = 4", idle.Until)
	}
	if math.Abs(idle.Stored-24) > 1e-6 || math.Abs(idle.Available-32) > 1e-6 {
		t.Fatalf("τ1 audit at t=0: stored=%v available=%v, want EC(0)=24 and 24+0.5·16=32",
			idle.Stored, idle.Available)
	}
	stretch := phases[1].first
	if math.Abs(stretch.Time-4) > 1e-6 || math.Abs(stretch.Until-12) > 1e-6 {
		t.Fatalf("τ1 stretches from %v until %v, want [4, 12]", stretch.Time, stretch.Until)
	}
	if stretch.Speed <= 0 || stretch.Speed >= 1 {
		t.Fatalf("stretched speed %v must be strictly between 0 and the max", stretch.Speed)
	}

	// The engine events seen by the same probe tell the outcome story.
	counts := map[obs.EventKind]int{}
	for _, ev := range rec.Events() {
		counts[ev.Kind]++
	}
	if counts[obs.KindArrival] != 2 || counts[obs.KindCompletion] != 2 ||
		counts[obs.KindMiss] != 0 || counts[obs.KindStall] != 0 {
		t.Fatalf("event counts = %v, want 2 arrivals, 2 completions, no misses/stalls", counts)
	}
}

// Golden decision audit for Figure 1 under LSA: no stretching, so the
// policy idles all the way to s2 = 16 − 32/8 = 12 and then runs τ1 flat
// out (the degenerate s2 = now case the audit codes as energy-rich). The
// energy spent at full speed leaves τ2 starved: it waits for its own s2,
// starts too late, and misses at 21.
func TestFig1LSAAuditGolden(t *testing.T) {
	rec := obs.NewRecorder()
	cfg := fig1Config(sched.LSA{})
	cfg.Probe = rec
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Miss.Missed != 1 || res.Miss.Finished != 1 {
		t.Fatalf("LSA outcome = %+v, want 1 finish + 1 miss", res.Miss)
	}

	maxLv := cfg.CPU.MaxLevel()
	phases := compressAudit(rec.Decisions())
	want := []struct {
		taskID int
		reason obs.Reason
		level  int
	}{
		{1, obs.ReasonIdleRecharge, -1},           // lazy: wait for s2 = 12
		{1, obs.ReasonFullSpeedEnergyRich, maxLv}, // then flat out
		{2, obs.ReasonIdleRecharge, -1},           // τ2 waits in a drained store
		{2, obs.ReasonFullSpeedEnergyRich, maxLv}, // starts too late
		{-1, obs.ReasonIdleNoJob, -1},
	}
	if len(phases) != len(want) {
		t.Fatalf("audit has %d phases, want %d: %+v", len(phases), len(want), phases)
	}
	for i, w := range want {
		p := phases[i]
		if p.taskID != w.taskID || p.reason != w.reason || p.level != w.level {
			t.Fatalf("phase %d = task %d %s level %d, want task %d %s level %d",
				i, p.taskID, p.reason, p.level, w.taskID, w.reason, w.level)
		}
	}
	if idle := phases[0].first; math.Abs(idle.S2-12) > 1e-6 || math.Abs(idle.Until-12) > 1e-6 {
		t.Fatalf("LSA idles until %v with s2=%v, want both 12", idle.Until, idle.S2)
	}

	missed := 0
	for _, ev := range rec.Events() {
		if ev.Kind == obs.KindMiss {
			missed++
			if ev.TaskID != 2 {
				t.Fatalf("miss event for task %d, want τ2", ev.TaskID)
			}
		}
	}
	if missed != 1 {
		t.Fatalf("saw %d miss events, want exactly 1", missed)
	}
}

// Dispatch and segment events carry enough to rebuild a Gantt chart: the
// segment stream tiles the horizon and every run segment names its job
// and operating point.
func TestFig1ProbeSegmentsTileHorizon(t *testing.T) {
	rec := obs.NewRecorder()
	cfg := fig1Config(core.NewEADVFS())
	cfg.Probe = rec
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	cursor := 0.0
	for _, ev := range rec.Events() {
		if ev.Kind != obs.KindSegment {
			continue
		}
		if math.Abs(ev.Start-cursor) > 1e-6 {
			t.Fatalf("segment starts at %v, expected to abut previous end %v", ev.Start, cursor)
		}
		if ev.Time < ev.Start {
			t.Fatalf("segment ends (%v) before it starts (%v)", ev.Time, ev.Start)
		}
		if ev.Mode == "run" && ev.TaskID < 0 {
			t.Fatalf("run segment without a job: %+v", ev)
		}
		cursor = ev.Time
	}
	if math.Abs(cursor-cfg.Horizon) > 1e-6 {
		t.Fatalf("segments end at %v, want the horizon %v", cursor, cfg.Horizon)
	}
}

// A nil probe must not change results: the observability layer observes,
// it does not perturb.
func TestProbeDoesNotPerturb(t *testing.T) {
	plain := fig1Config(core.NewEADVFS())
	resPlain, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	probed := fig1Config(core.NewEADVFS())
	probed.Probe = obs.NewRecorder()
	resProbed, err := Run(probed)
	if err != nil {
		t.Fatal(err)
	}
	if resPlain.CPUEnergy != resProbed.CPUEnergy ||
		resPlain.Miss != resProbed.Miss ||
		resPlain.BusyTime != resProbed.BusyTime {
		t.Fatalf("probe changed the run: %+v vs %+v", resPlain, resProbed)
	}
}

// TestModeNamesInObsVocabulary pins the segment modes the engine names
// to the closed list the event checkers accept, in both directions.
func TestModeNamesInObsVocabulary(t *testing.T) {
	known := map[string]bool{}
	for _, m := range obs.KnownModes() {
		known[m] = true
	}
	named := 0
	for m := Mode(0); m.String() != fmt.Sprintf("mode(%d)", int(m)); m++ {
		if !known[m.String()] {
			t.Errorf("sim mode %q missing from obs.KnownModes", m)
		}
		named++
	}
	if named != len(known) {
		t.Errorf("sim names %d modes, obs.KnownModes lists %v", named, obs.KnownModes())
	}
}
