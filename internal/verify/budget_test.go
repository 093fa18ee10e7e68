package verify

import (
	"errors"
	"math"
	"testing"

	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/refimpl"
	"github.com/eadvfs/eadvfs/internal/rng"
	"github.com/eadvfs/eadvfs/internal/runspec"
	"github.com/eadvfs/eadvfs/internal/sched"
	"github.com/eadvfs/eadvfs/internal/sim"
	"github.com/eadvfs/eadvfs/internal/task"
)

// decideCounter counts the Decide calls the engine makes.
type decideCounter struct {
	sched.Policy
	calls int
}

func (c *decideCounter) Decide(ctx *sched.Context) sched.Decision {
	c.calls++
	return c.Policy.Decide(ctx)
}

// quietSpec is a paper-style point with long empty-queue stretches — U 0.2
// with a full 5000 J store under the solar source — so many unit
// boundaries are quiet.
func quietSpec(t *testing.T, policy string) *Spec {
	t.Helper()
	src := runspec.SourceSpec{Kind: "solar", Seed: 11, Amplitude: 10}
	tasks, err := task.Generate(task.GeneratorConfig{
		NumTasks:         5,
		Periods:          task.PaperPeriods(),
		MeanHarvestPower: sourceMean(src),
		PMax:             cpu.XScale().MaxPower(),
		TargetU:          0.2,
	}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	return &Spec{Spec: runspec.Spec{
		Policy: policy, Predictor: "ewma",
		Horizon: 300, Tasks: tasks, Source: src,
		Capacity: 5000, Initial: 5000,
	}}
}

// TestEventBudgetExactAtQuietBoundaries sweeps the event budget over every
// value a run can stop at. A quiet boundary's decision is dispatched inline
// and may skip the policy, yet it is still one event under the budget:
// at every value the untraced optimized run must stop exactly where the
// reference does, with the same event count, clock and pending events.
func TestEventBudgetExactAtQuietBoundaries(t *testing.T) {
	for _, policy := range []string{"ea-dvfs", "lsa"} {
		s := quietSpec(t, policy)
		cfg, err := s.config(false)
		if err != nil {
			t.Fatal(err)
		}
		counter := &decideCounter{Policy: cfg.Policy}
		cfg.Policy = counter
		full, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d events, %d decisions, %d Decide calls", policy, full.Events, full.Decisions, counter.calls)
		if quiet := full.Decisions - counter.calls; quiet < 20 {
			t.Fatalf("%s: only %d quiet boundaries in %d decisions; the sweep would not cover them",
				policy, quiet, full.Decisions)
		}
		for m := uint64(1); m <= full.Events; m++ {
			s.MaxEvents = m
			opt, err := s.config(false)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := s.config(true)
			if err != nil {
				t.Fatal(err)
			}
			_, optErr := sim.Run(opt)
			_, refErr := refimpl.Run(ref)
			if m == full.Events {
				if optErr != nil || refErr != nil {
					t.Fatalf("%s: budget of exactly %d events: errors %v / %v, want none", policy, m, optErr, refErr)
				}
				continue
			}
			var o, r *sim.EventBudgetError
			if !errors.As(optErr, &o) || !errors.As(refErr, &r) {
				t.Fatalf("%s: budget %d: errors %v / %v, want *EventBudgetError on both", policy, m, optErr, refErr)
			}
			if o.Events != r.Events || o.Pending != r.Pending ||
				math.Float64bits(o.Time) != math.Float64bits(r.Time) ||
				math.Float64bits(o.Horizon) != math.Float64bits(r.Horizon) {
				t.Fatalf("%s: budget %d: optimized %+v, reference %+v", policy, m, *o, *r)
			}
		}
	}
}
