package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/sched"
	"github.com/eadvfs/eadvfs/internal/storage"
	"github.com/eadvfs/eadvfs/internal/task"
)

// callCounter counts the Decide calls the engine makes.
type callCounter struct {
	inner sched.Policy
	calls int
}

func (c *callCounter) Name() string { return c.inner.Name() }

func (c *callCounter) Decide(ctx *sched.Context) sched.Decision {
	c.calls++
	return c.inner.Decide(ctx)
}

// Figure 1 ends with an empty ready queue from τ2's miss at 21 to the
// horizon at 25: its unit boundaries there are quiet. An untraced run
// counts them as decisions without asking the policy; a traced or checked
// run asks at every decision point. All three results are identical.
func TestQuietBoundariesSkipDecideOnlyUntraced(t *testing.T) {
	run := func(probe bool, check bool) (*Result, int) {
		t.Helper()
		cfg := fig1Config(sched.LSA{})
		counter := &callCounter{inner: cfg.Policy}
		cfg.Policy = counter
		if probe {
			cfg.Probe = &countingProbe{}
		}
		cfg.CheckInvariants = check
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, counter.calls
	}
	plain, plainCalls := run(false, false)
	traced, tracedCalls := run(true, false)
	checked, checkedCalls := run(false, true)

	if tracedCalls != traced.Decisions || checkedCalls != checked.Decisions {
		t.Fatalf("observed runs skipped Decide: traced %d calls for %d decisions, checked %d for %d",
			tracedCalls, traced.Decisions, checkedCalls, checked.Decisions)
	}
	if plainCalls >= plain.Decisions {
		t.Fatalf("untraced run asked the policy %d times for %d decisions; the quiet boundaries were not skipped",
			plainCalls, plain.Decisions)
	}
	if !reflect.DeepEqual(plain, traced) || !reflect.DeepEqual(plain, checked) {
		t.Fatalf("skipping quiet boundaries changed the result:\nuntraced %+v\ntraced   %+v\nchecked  %+v",
			plain, traced, checked)
	}
}

// idleFive breaks the sched.Policy contract: on an empty ready queue it
// asks to be called back at t=5 instead of answering Idle(+Inf).
type idleFive struct{ sched.EDF }

func (p idleFive) Decide(ctx *sched.Context) sched.Decision {
	if ctx.Queue.Len() == 0 {
		return sched.Idle(5)
	}
	return p.EDF.Decide(ctx)
}

// Under CheckInvariants the engine still asks the policy at quiet
// boundaries, and an answer other than Idle(+Inf) is an invariant
// violation that names the quiet point.
func TestQuietBoundaryContractBreachIsInvariantError(t *testing.T) {
	src := energy.NewConstant(1)
	cfg := &Config{
		Horizon:         5,
		Tasks:           []task.Task{{ID: 1, Period: 10, Deadline: 10, WCET: 1}},
		Source:          src,
		Predictor:       energy.NewOracle(src),
		Store:           storage.New(100, 50),
		CPU:             cpu.TwoSpeed(8),
		Policy:          idleFive{},
		CheckInvariants: true,
	}
	_, err := Run(cfg)
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("Run error = %v, want *InvariantError", err)
	}
	// The job completes at 1; the boundary at 1 shares its instant with
	// that completion, so the first quiet boundary is t=2.
	v := ie.Violations[0]
	if v.Kind != "policy-contract" || v.Time != 2 ||
		!strings.Contains(v.Detail, "quiet unit boundary") || !strings.Contains(v.Detail, "until 5") {
		t.Fatalf("first violation = %v, want policy-contract at the quiet boundary t=2", v)
	}
}
