package core

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/sched"
	"github.com/eadvfs/eadvfs/internal/task"
)

func ctxWith(now, stored, harvestPower float64, proc *cpu.Processor, jobs ...*task.Job) *sched.Context {
	q := task.NewReadyQueue()
	for _, j := range jobs {
		q.Push(j)
	}
	return &sched.Context{
		Now:       now,
		Queue:     q,
		Stored:    stored,
		Capacity:  math.Inf(1),
		CPU:       proc,
		Predictor: energy.NewOracle(energy.NewConstant(harvestPower)),
	}
}

// The §4.3 worked example: EA = 32, Pmax = 8, τ1 = (0, 16, 4), fn = 0.25
// with Pn = 1. The paper computes sr_n = 32, sr_max = 4, s1 = 0, s2 = 12.
func TestComputePlanFig3Numbers(t *testing.T) {
	p := ComputePlan(cpu.Fig3(), 32, 0, 16, 4)
	if !p.Feasible || p.Level != 0 {
		t.Fatalf("plan level/feasible = %d/%v, want 0/true", p.Level, p.Feasible)
	}
	if p.SRn != 32 {
		t.Fatalf("sr_n = %v, want 32 (eq. 5)", p.SRn)
	}
	if p.SRmax != 4 {
		t.Fatalf("sr_max = %v, want 4 (eq. 9)", p.SRmax)
	}
	if p.S1 != 0 {
		t.Fatalf("s1 = %v, want 0 (eq. 7)", p.S1)
	}
	if p.S2 != 12 {
		t.Fatalf("s2 = %v, want 12 (eq. 8)", p.S2)
	}
	if p.SufficientEnergy(0) {
		t.Fatal("s1 != s2 must read as insufficient energy")
	}
}

// The §2 motivational example as EA-DVFS sees τ1: EC(0) = 24, Ps = 0.5,
// two-speed CPU with Pmax = 8. Available = 32; slow level (S = 1/2,
// P = 8/3) gives sr_n = 12, s1 = 4; sr_max = 4, s2 = 12.
func TestComputePlanMotivationalExample(t *testing.T) {
	p := ComputePlan(cpu.TwoSpeed(8), 32, 0, 16, 4)
	if p.Level != 0 || !p.Feasible {
		t.Fatalf("level = %d, want low speed", p.Level)
	}
	if math.Abs(p.SRn-12) > 1e-9 {
		t.Fatalf("sr_n = %v, want 12", p.SRn)
	}
	if math.Abs(p.S1-4) > 1e-9 {
		t.Fatalf("s1 = %v, want 4", p.S1)
	}
	if math.Abs(p.S2-12) > 1e-9 {
		t.Fatalf("s2 = %v, want 12", p.S2)
	}
}

func TestComputePlanSufficientEnergy(t *testing.T) {
	// Huge available energy: sr_max >= deadline-now → s1 = s2 = now.
	p := ComputePlan(cpu.XScale(), 1e9, 5, 25, 3)
	if !p.SufficientEnergy(5) {
		t.Fatal("ample energy not detected as sufficient")
	}
	if p.S1 != 5 || p.S2 != 5 {
		t.Fatalf("s1/s2 = %v/%v, want both clamped to now", p.S1, p.S2)
	}
}

// Infinite storage ⇒ sr_n = sr_max = ∞ ⇒ s1 = s2 = now: the paper's §4.3
// special case under which EA-DVFS is plain EDF.
func TestComputePlanInfiniteEnergy(t *testing.T) {
	p := ComputePlan(cpu.XScale(), math.Inf(1), 7, 30, 2)
	if !p.SufficientEnergy(7) {
		t.Fatal("infinite energy not sufficient")
	}
	if !math.IsInf(p.SRn, 1) || !math.IsInf(p.SRmax, 1) {
		t.Fatalf("sr_n/sr_max = %v/%v, want +Inf", p.SRn, p.SRmax)
	}
}

func TestComputePlanInfeasibleWindow(t *testing.T) {
	p := ComputePlan(cpu.XScale(), 100, 0, 3, 4)
	if p.Feasible {
		t.Fatal("w=4 in window 3 claimed feasible")
	}
	if p.Level != cpu.XScale().MaxLevel() {
		t.Fatal("infeasible plan must fall back to max level")
	}
}

func TestComputePlanNegativeAvailableClamped(t *testing.T) {
	p := ComputePlan(cpu.XScale(), -5, 0, 10, 1)
	if p.SRn != 0 || p.SRmax != 0 {
		t.Fatalf("negative available not clamped: %v/%v", p.SRn, p.SRmax)
	}
	if p.S1 != 10 || p.S2 != 10 {
		t.Fatalf("s1/s2 = %v/%v, want deadline", p.S1, p.S2)
	}
}

func TestComputePlanNegativeRemainingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative remaining did not panic")
		}
	}()
	ComputePlan(cpu.XScale(), 10, 0, 10, -1)
}

// Invariant from DESIGN.md §2.1: P_n <= P_max ⇒ sr_n >= sr_max ⇒ s1 <= s2,
// for any input state.
func TestS1NeverAfterS2Property(t *testing.T) {
	procs := []*cpu.Processor{cpu.XScale(), cpu.TwoSpeed(8), cpu.Fig3(), cpu.Cubic(7, 1000, 3.2, 0.05)}
	f := func(availRaw, nowRaw, winRaw, remRaw uint16, procIdx uint8) bool {
		proc := procs[int(procIdx)%len(procs)]
		available := float64(availRaw) / 3
		now := float64(nowRaw%1000) / 7
		deadline := now + float64(winRaw%800)/7
		remaining := float64(remRaw%400) / 11
		p := ComputePlan(proc, available, now, deadline, remaining)
		if p.S1 > p.S2+1e-9 {
			return false
		}
		// Both start times are never before now and never after deadline
		// unless clamped to now.
		if p.S1 < now || p.S2 < now {
			return false
		}
		// Chosen level satisfies ineq. (6) whenever feasible.
		if p.Feasible && remaining > 0 && remaining/proc.Speed(p.Level) > deadline-now+1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecideSufficientEnergyRunsFullSpeed(t *testing.T) {
	j := task.NewJob(0, 0, 0, 16, 4)
	ctx := ctxWith(0, 1e6, 0, cpu.TwoSpeed(8), j)
	d := NewEADVFS().Decide(ctx)
	if d.Job != j || d.Level != ctx.CPU.MaxLevel() {
		t.Fatalf("decision = %+v, want full speed", d)
	}
}

// Figure 4 walkthrough on the §4.3 example at t=0: s1=0 < s2=12 → run at
// the slow level with a re-decision scheduled at s2.
func TestDecideStretchPhase(t *testing.T) {
	j := task.NewJob(0, 0, 0, 16, 4)
	ctx := ctxWith(0, 32, 0, cpu.Fig3(), j)
	d := NewEADVFS().Decide(ctx)
	if d.Job != j || d.Level != 0 {
		t.Fatalf("decision = %+v, want slow level", d)
	}
	if math.Abs(d.Until-12) > 1e-9 {
		t.Fatalf("re-decision at %v, want s2 = 12", d.Until)
	}
}

// Past s2 the job must run at full speed (Figure 4 line 10).
func TestDecideFullSpeedAfterS2(t *testing.T) {
	j := task.NewJob(0, 0, 0, 16, 4)
	j.Progress(3) // 12 units of time at the slow level already spent
	// At t=12 with 13 units available: sr_max = 13/8 > 16-12? No:
	// 1.625 < 4, so s2 = max(12, 16-1.625) = 14.375 > 12 → still stretch?
	// Use a state where now >= s2: available 32 → sr_max 4 → s2 = 12.
	ctx := ctxWith(12, 32, 0, cpu.Fig3(), j)
	d := NewEADVFS().Decide(ctx)
	if d.Job != j || d.Level != ctx.CPU.MaxLevel() {
		t.Fatalf("decision at s2 = %+v, want full speed", d)
	}
}

// Motivational example: at t=0 EA-DVFS idles until s1 = 4 (the slow level
// cannot sustain execution before that), then stretches.
func TestDecideWaitsForS1(t *testing.T) {
	j := task.NewJob(0, 0, 0, 16, 4)
	ctx := ctxWith(0, 24, 0.5, cpu.TwoSpeed(8), j)
	d := NewEADVFS().Decide(ctx)
	if d.Job != nil {
		t.Fatal("EA-DVFS ran before s1")
	}
	if math.Abs(d.Until-4) > 1e-9 {
		t.Fatalf("idle until %v, want s1 = 4", d.Until)
	}
}

func TestDecideInfeasibleRunsFlatOut(t *testing.T) {
	j := task.NewJob(0, 0, 0, 2, 4)
	ctx := ctxWith(0, 100, 0, cpu.XScale(), j)
	d := NewEADVFS().Decide(ctx)
	if d.Job != j || d.Level != ctx.CPU.MaxLevel() {
		t.Fatalf("infeasible decision = %+v", d)
	}
}

func TestDecideEmptyQueueIdles(t *testing.T) {
	ctx := ctxWith(0, 10, 1, cpu.XScale())
	d := NewEADVFS().Decide(ctx)
	if d.Job != nil || !math.IsInf(d.Until, 1) {
		t.Fatalf("empty-queue decision = %+v", d)
	}
}

// With infinite stored energy EA-DVFS must make exactly the same decision
// as plain EDF for any job state (§4.3) — checked pointwise here; the
// engine-level trace equivalence is asserted in internal/sim tests.
func TestInfiniteStorageEquivalentToEDFProperty(t *testing.T) {
	f := func(dRaw, wRaw, nowRaw uint16) bool {
		now := float64(nowRaw%500) / 7
		d := 1 + float64(dRaw%300)/7
		w := math.Min(float64(wRaw%200)/13, d)
		j := task.NewJob(0, 0, 0, now+d, w) // arrival 0, deadline beyond now
		ctxA := ctxWith(now, math.Inf(1), 0, cpu.XScale(), j)
		ctxB := ctxWith(now, math.Inf(1), 0, cpu.XScale(), j)
		da := NewEADVFS().Decide(ctxA)
		db := sched.EDF{}.Decide(ctxB)
		return da.Job == db.Job && da.Level == db.Level
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestName(t *testing.T) {
	if NewEADVFS().Name() != "ea-dvfs" {
		t.Fatal("policy name changed — reports reference it")
	}
}

// The s2 lock: once stretching starts, the switch-to-full-speed instant
// stays at the originally computed s2 even though the energy state keeps
// looking comfortable — this is what makes the paper's Figure 3 arithmetic
// ("finishes τ1 at 13") come out.
func TestS2LockedAcrossReevaluations(t *testing.T) {
	p := NewEADVFS()
	j := task.NewJob(0, 0, 0, 16, 4)

	// t=0: EA=32 → stretch at level 0, s2 locked at 12.
	d := p.Decide(ctxWith(0, 32, 0, cpu.Fig3(), j))
	if d.Level != 0 || math.Abs(d.Until-12) > 1e-9 {
		t.Fatalf("initial decision = %+v", d)
	}

	// t=12 after 12 units of slow progress: 20 stored, 1 work left. A
	// fresh plan would say s2 = 13.5 and keep stretching; the locked plan
	// must switch to full speed now.
	j.Progress(3)
	d = p.Decide(ctxWith(12, 20, 0, cpu.Fig3(), j))
	if d.Job != j || d.Level != cpu.Fig3().MaxLevel() {
		t.Fatalf("locked-s2 decision at 12 = %+v, want full speed", d)
	}
}

// The dynamic ablation variant keeps recomputing s2 and therefore keeps
// stretching in the same state — the drift the lock prevents.
func TestDynamicVariantKeepsStretching(t *testing.T) {
	p := NewDynamicEADVFS()
	j := task.NewJob(0, 0, 0, 16, 4)
	d := p.Decide(ctxWith(0, 32, 0, cpu.Fig3(), j))
	if d.Level != 0 {
		t.Fatalf("initial dynamic decision = %+v", d)
	}
	j.Progress(3)
	d = p.Decide(ctxWith(12, 20, 0, cpu.Fig3(), j))
	if d.Level != 0 {
		t.Fatalf("dynamic decision at 12 = %+v, want still stretching (s2 drifted to 13.5)", d)
	}
	if math.Abs(d.Until-13.5) > 1e-9 {
		t.Fatalf("dynamic Until = %v, want recomputed s2 = 13.5", d.Until)
	}
}

func TestDynamicName(t *testing.T) {
	if NewDynamicEADVFS().Name() != "ea-dvfs-dynamic" {
		t.Fatal("dynamic variant name changed")
	}
}

// An energy windfall while stretching releases the lock: with plentiful
// energy the paper's rule is full speed, whatever was promised.
func TestWindfallUnlocksToFullSpeed(t *testing.T) {
	p := NewEADVFS()
	j := task.NewJob(0, 0, 0, 16, 4)
	if d := p.Decide(ctxWith(0, 32, 0, cpu.Fig3(), j)); d.Level != 0 {
		t.Fatalf("setup decision = %+v", d)
	}
	j.Progress(1)
	d := p.Decide(ctxWith(4, 1e9, 0, cpu.Fig3(), j))
	if d.Level != cpu.Fig3().MaxLevel() {
		t.Fatalf("windfall decision = %+v, want full speed", d)
	}
}
