package verify

import (
	"flag"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/eadvfs/eadvfs/internal/runspec"
	"github.com/eadvfs/eadvfs/internal/task"
)

var (
	quick = flag.Bool("quick", false,
		"run the CI-sized differential sweep (forces -verify.n=200)")
	verifyN = flag.Int("verify.n", 200,
		"number of random configurations per differential sweep")
	verifySeed = flag.Uint64("verify.seed", 1,
		"first generator seed of the differential sweep")
)

// runCounter advances once per TestDifferential invocation, so a nightly
// `go test ./internal/verify -count=K` scans K disjoint seed windows
// instead of re-running the same one — deterministic scaling without any
// wall-clock dependence.
var runCounter uint64

func TestDifferential(t *testing.T) {
	n := *verifyN
	if *quick {
		n = 200
	}
	window := atomic.AddUint64(&runCounter, 1) - 1
	base := *verifySeed + window*uint64(n)
	t.Logf("differential sweep: %d specs from seed %d", n, base)
	for i := 0; i < n; i++ {
		seed := base + uint64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			spec := RandomSpec(seed)
			d, err := Check(spec)
			if err != nil {
				t.Fatalf("spec from seed %d failed to build: %v", seed, err)
			}
			if d.Diverged() {
				t.Fatalf("optimized and reference engines diverged on seed %d "+
					"(policy=%s predictor=%s source=%s):\n  %s\n"+
					"reproduce: go run ./cmd/eaverify -seed %d -n 1",
					seed, spec.Policy, spec.Predictor, spec.Source.Kind,
					strings.Join(d.Diffs, "\n  "), seed)
			}
		})
	}
}

// TestInjectedDivergence proves the harness can actually see a divergence:
// a biased predictor on the optimized side must surface in the decision
// audits. Without this test, a comparator bug that compares nothing would
// make the sweep vacuously green.
func TestInjectedDivergence(t *testing.T) {
	spec := &Spec{
		Spec: runspec.Spec{
			Policy:    "ea-dvfs",
			Predictor: "zero",
			Horizon:   60,
			Tasks:     []task.Task{{ID: 0, Period: 20, Deadline: 20, WCET: 4}},
			Source:    runspec.SourceSpec{Kind: "constant", Power: 2},
			Capacity:  50, Initial: 25,
		},
		InjectBias: 1e-6, InjectAfter: 0,
	}
	d, err := Check(spec)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if !d.Diverged() {
		t.Fatal("injected predictor bias produced no divergence — the comparator is blind")
	}
}
