package verify

import (
	"math"

	"github.com/eadvfs/eadvfs/internal/registry"
	"github.com/eadvfs/eadvfs/internal/rng"
	"github.com/eadvfs/eadvfs/internal/task"
)

// RandomSpec draws one differential test case from a seed. The same seed
// always yields the same spec (the generator is a pure function of the
// deterministic internal/rng stream), so a failing seed printed by the
// differential test is a complete reproduction recipe.
//
// The distribution is deliberately adversarial rather than realistic:
// zero-capacity stores, empty task windows, fault injection, execution
// jitter and deadline-drop policy all appear with material probability,
// because divergence bugs live at boundaries, not in the comfortable
// interior.
func RandomSpec(seed uint64) *Spec {
	r := rng.New(seed)
	s := &Spec{Seed: seed}

	s.Policy = pick(r, "ea-dvfs", "ea-dvfs-dynamic", "lsa", "edf")
	s.Predictor = pick(r, "oracle", "ewma", "last-value", "zero")
	if s.Predictor == "ewma" {
		s.Alpha = r.Uniform(0.05, 0.9)
	}

	s.Horizon = float64(40 + r.Intn(200))
	if r.Intn(10) < 3 {
		s.Horizon += r.Float64() // fractional horizons exercise final partial units
	}

	s.Source = randomSource(r)
	meanPower := sourceMean(s.Source)

	s.CPU = pick(r, "xscale", "xscale", "two-speed", "pxa270", "sensor-mcu")
	s.Tasks = randomTasks(r, meanPower, cpuPresets[s.CPU]().MaxPower())

	switch r.Intn(5) {
	case 0:
		s.Capacity = 0 // hand-to-mouth: every decision is energy-critical
	case 1:
		s.Capacity = r.Uniform(1, 10)
	case 2:
		s.Capacity = r.Uniform(10, 100)
	default:
		s.Capacity = r.Uniform(100, 1000)
	}
	s.InitialFrac = r.Float64()

	// Execution jitter, two flavors: the legacy global best-case ratio, or
	// a drawn per-task distribution (task.ExecSpec) shared by the set —
	// the stochastic-workload subsystem's engine path.
	switch r.Intn(10) {
	case 0, 1, 2:
		s.BCWCRatio = r.Uniform(0.2, 0.9)
		s.ExecSeed = r.Uint64()
	case 3, 4:
		s.ExecSeed = r.Uint64()
		spec := randomExecSpec(r)
		for i := range s.Tasks {
			s.Tasks[i].Exec = &spec
		}
	}
	// DPM: a quarter of specs sleep, so break-even gating, transition
	// draws and wake latency are all under differential coverage.
	if r.Intn(4) == 0 {
		s.Sleep = "default"
	}
	if r.Intn(4) == 0 {
		s.FaultIntensity = r.Uniform(0.05, 0.6)
		s.FaultSeed = r.Uint64()
	}
	s.ContinueAfterDeadline = r.Intn(5) == 0

	// Watchdog: a differential pair that loops forever should fail with a
	// matching pair of EventBudgetErrors, not hang CI.
	s.MaxEvents = 2_000_000
	return s
}

// RandomSpecForPolicy draws the deterministic spec for (seed, policy):
// RandomSpec's distribution with the policy pinned, plus schema-derived
// parameters for registrations that declare any (static-dvfs gets a
// utilization drawn from a seed-derived stream, so the parameter space
// is swept too, deterministically). This is how the auto-differential
// sweep covers every registered policy — including ones RandomSpec's
// own menu predates — with one spec recipe.
func RandomSpecForPolicy(seed uint64, policy string) *Spec {
	s := RandomSpec(seed)
	s.Policy = policy
	s.PolicyParams = nil
	def, err := registry.Policy(policy)
	if err != nil {
		return s
	}
	// A distinct stream: perturbing parameters must not reshuffle the
	// rest of the spec away from RandomSpec(seed)'s draw.
	pr := rng.New(seed ^ 0x9e3779b97f4a7c15)
	if def.HasParam("utilization") {
		s.PolicyParams = map[string]any{"utilization": pr.Uniform(0.1, 0.9)}
	}
	if def.HasParam("reclaim_alpha") {
		s.PolicyParams = map[string]any{
			"reclaim_alpha": pr.Uniform(0.1, 1),
			"min_ratio":     pr.Uniform(0, 0.5),
		}
		// A reclaiming policy only departs from its inner policy when jobs
		// complete early; guarantee jitter so the sweep exercises the
		// decorator's speculative branch, not just its pass-through.
		if s.BCWCRatio == 0 && (len(s.Tasks) == 0 || s.Tasks[0].Exec == nil) {
			s.BCWCRatio = pr.Uniform(0.2, 0.9)
			s.ExecSeed = pr.Uint64()
		}
	}
	return s
}

func pick(r *rng.RNG, choices ...string) string {
	return choices[r.Intn(len(choices))]
}

// randomExecSpec draws one execution-time distribution, covering all four
// kinds with boundary-friendly parameters (BCRatio 0 and ratio-0 trace
// slots both appear).
func randomExecSpec(r *rng.RNG) task.ExecSpec {
	bc := r.Uniform(0, 0.6)
	switch r.Intn(4) {
	case 0:
		return task.ExecSpec{Dist: task.DistUniform, BCRatio: bc}
	case 1:
		return task.ExecSpec{
			Dist: task.DistNormal, BCRatio: bc,
			Mean: r.Uniform(bc, 1), StdDev: r.Uniform(0, 0.3),
		}
	case 2:
		return task.ExecSpec{
			Dist: task.DistBimodal, BCRatio: bc,
			FastProb: r.Float64(), FastRatio: r.Uniform(bc, 1),
		}
	default:
		slots := make([]float64, 1+r.Intn(8))
		for i := range slots {
			slots[i] = r.Float64()
		}
		return task.ExecSpec{Dist: task.DistTrace, BCRatio: bc, Slots: slots}
	}
}

func randomSource(r *rng.RNG) SourceSpec {
	switch r.Intn(4) {
	case 0:
		return SourceSpec{Kind: "constant", Power: r.Uniform(0.5, 6)}
	case 1:
		period := float64(10 + r.Intn(40))
		return SourceSpec{
			Kind:   "two-mode",
			Day:    r.Uniform(2, 8),
			Night:  r.Uniform(0, 1),
			Period: period,
			DayLen: period * r.Uniform(0.2, 0.8),
		}
	case 2:
		return SourceSpec{Kind: "solar", Seed: r.Uint64(), Amplitude: r.Uniform(4, 12)}
	default:
		n := 5 + r.Intn(20)
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = r.Uniform(0, 8)
		}
		return SourceSpec{Kind: "trace", Samples: samples}
	}
}

// sourceMean estimates the spec's mean power for sizing the task set —
// precision is irrelevant, it only biases utilization toward schedulable.
func sourceMean(s SourceSpec) float64 {
	switch s.Kind {
	case "constant":
		return s.Power
	case "two-mode":
		frac := s.DayLen / s.Period
		return s.Day*frac + s.Night*(1-frac)
	case "solar":
		return s.Amplitude / math.Pi // half-sine day, dark night
	case "trace":
		sum := 0.0
		for _, v := range s.Samples {
			sum += v
		}
		return sum / float64(len(s.Samples))
	default:
		return 1
	}
}

func randomTasks(r *rng.RNG, meanPower, pmax float64) []task.Task {
	cfg := task.GeneratorConfig{
		NumTasks:         1 + r.Intn(6),
		Periods:          task.PaperPeriods(),
		MeanHarvestPower: math.Max(meanPower, 0.1),
		PMax:             pmax,
		TargetU:          r.Uniform(0.1, 0.9),
	}
	tasks, err := task.Generate(cfg, r.Child(0x7a5c))
	if err == nil && len(tasks) > 0 {
		// Shake some offsets loose so not every first job arrives at 0.
		for i := range tasks {
			if r.Intn(3) == 0 {
				tasks[i].Offset = float64(r.Intn(int(tasks[i].Period)))
			}
		}
		return tasks
	}
	// Fallback: one hand-built task, always valid.
	return []task.Task{{ID: 0, Period: 20, Deadline: 20, WCET: 4}}
}
