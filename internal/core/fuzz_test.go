package core

import (
	"math"
	"testing"

	"github.com/eadvfs/eadvfs/internal/cpu"
)

// FuzzComputePlan checks the EA-DVFS planning invariants (s1 <= s2, both
// within [now, deadline], ineq. 6 on the chosen level) over fuzzer-chosen
// states and processors. Runs its seed corpus under `go test`.
func FuzzComputePlan(f *testing.F) {
	f.Add(uint16(32), uint16(0), uint16(160), uint16(40), byte(2))
	f.Add(uint16(0), uint16(100), uint16(1), uint16(1), byte(0))
	f.Add(uint16(65535), uint16(7), uint16(50), uint16(400), byte(1))
	procs := []*cpu.Processor{
		cpu.XScale(), cpu.TwoSpeed(8), cpu.Fig3(), cpu.Cubic(9, 1000, 12, 0.1),
	}
	f.Fuzz(func(t *testing.T, availRaw, nowRaw, winRaw, remRaw uint16, procIdx byte) {
		proc := procs[int(procIdx)%len(procs)]
		available := float64(availRaw) / 10
		now := float64(nowRaw) / 10
		deadline := now + float64(winRaw)/10
		remaining := float64(remRaw) / 10

		plan := ComputePlan(proc, available, now, deadline, remaining)

		if plan.S1 > plan.S2+1e-9 {
			t.Fatalf("s1 %v > s2 %v", plan.S1, plan.S2)
		}
		if plan.S1 < now-1e-9 || plan.S2 < now-1e-9 {
			t.Fatalf("start before now: s1 %v s2 %v now %v", plan.S1, plan.S2, now)
		}
		if plan.Feasible && remaining > 0 {
			if remaining/proc.Speed(plan.Level) > deadline-now+1e-9 {
				t.Fatalf("chosen level %d violates ineq. 6", plan.Level)
			}
			if plan.Level > 0 && remaining/proc.Speed(plan.Level-1) <= deadline-now {
				t.Fatalf("level %d not minimal", plan.Level)
			}
		}
		if math.IsNaN(plan.SRn) || math.IsNaN(plan.SRmax) {
			t.Fatal("NaN run times")
		}
		// Sufficiency is monotone in energy: adding energy to a
		// sufficient state must stay sufficient.
		if plan.SufficientEnergy(now) {
			richer := ComputePlan(proc, available*2+1, now, deadline, remaining)
			if !richer.SufficientEnergy(now) {
				t.Fatal("sufficiency not monotone in available energy")
			}
		}
	})
}
