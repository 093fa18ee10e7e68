package verify

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"

	"github.com/eadvfs/eadvfs/internal/runspec"
	"github.com/eadvfs/eadvfs/internal/sim"
	"github.com/eadvfs/eadvfs/internal/task"
)

// TestBCWCRatioPinnedResults pins the optimized engine's Result, as JSON,
// for specs whose jitter is the run-wide bcwc_ratio. Both engines see the
// same translated configuration, so the differential sweep cannot notice
// a translation that changes the draws; these digests can. They were
// recorded when the engines still drew the run-wide ratio themselves.
func TestBCWCRatioPinnedResults(t *testing.T) {
	cases := []struct {
		name string
		spec *Spec
		want string
	}{
		{"seed=1/lsa", RandomSpec(1), "f2224b48ce85e2e53ecf0dc2fdd11699956d8af49e63781d4fd38c2de2eb612b"},
		{"seed=11/ea-dvfs", RandomSpec(11), "15e46337345fa72a733ef49bffbe37099a1f6e3e3c4a5c12371d3af1458cf6ed"},
		{"seed=40/ea-dvfs+faults", RandomSpec(40), "290c477d131b02a3e739d01a0379e176b479aa41eebd319246ef14b7f9f81ca4"},
		{"seed=3/ea-dvfs-reclaim", RandomSpecForPolicy(3, "ea-dvfs-reclaim"), "1016647334f089707ef102bab91fd800e0eee3c48c698885c5f8875cc84dd148"},
		{"seed=2/lsa-reclaim", RandomSpecForPolicy(2, "lsa-reclaim"), "4866957f24345f6ce1001eef36d04276c798f41cdc141d28fc88236986cb4682"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if r := tc.spec.BCWCRatio; !(r > 0 && r < 1) {
				t.Fatalf("spec does not take the bcwc_ratio path (ratio %v)", r)
			}
			for _, tk := range tc.spec.Tasks {
				if tk.Exec != nil {
					t.Fatal("spec carries a per-task ExecSpec; the pin must cover bcwc_ratio alone")
				}
			}
			opt, _, err := tc.spec.Pair()
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Slack.DrawnJobs == 0 {
				t.Fatal("no job drew an actual execution time")
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Fatalf("Result digest %s, want %s", got, tc.want)
			}
		})
	}
}

// TestBCWCRatioTranslation: a ratio in (0, 1) becomes a uniform ExecSpec
// on every task that has none, a task's own spec is kept, and the
// degenerate ratios 0 and 1 leave the run WCET-exact.
func TestBCWCRatioTranslation(t *testing.T) {
	own := &task.ExecSpec{Dist: task.DistTrace, Slots: []float64{0.5}}
	spec := &Spec{Spec: runspec.Spec{
		Policy: "edf", Predictor: "oracle", Horizon: 40,
		Source:   runspec.SourceSpec{Kind: "constant", Power: 2},
		Capacity: 50, Initial: 50,
		Tasks: []task.Task{
			{ID: 0, Period: 20, Deadline: 20, WCET: 4},
			{ID: 1, Period: 10, Deadline: 10, WCET: 1, Exec: own},
		},
	}}
	for _, ratio := range []float64{0, 1} {
		spec.BCWCRatio = ratio
		opt, ref, err := spec.Pair()
		if err != nil {
			t.Fatal(err)
		}
		if opt.Tasks[0].Exec != nil || ref.Tasks[0].Exec != nil {
			t.Errorf("ratio %v attached an ExecSpec", ratio)
		}
	}
	spec.BCWCRatio = 0.4
	opt, ref, err := spec.Pair()
	if err != nil {
		t.Fatal(err)
	}
	for side, cfg := range map[string]*sim.Config{"opt": opt, "ref": ref} {
		if e := cfg.Tasks[0].Exec; e == nil || e.Dist != task.DistUniform || e.BCRatio != 0.4 {
			t.Errorf("%s: task 0 exec = %+v, want uniform 0.4", side, e)
		}
		if cfg.Tasks[1].Exec != own {
			t.Errorf("%s: task 1's own ExecSpec was replaced", side)
		}
	}
	if spec.Tasks[0].Exec != nil {
		t.Error("Pair mutated the spec's tasks")
	}
}

// TestBCWCRatioRejected: a ratio outside [0, 1] is a spec error, never a
// silently WCET-exact run.
func TestBCWCRatioRejected(t *testing.T) {
	for _, ratio := range []float64{1.5, -0.1, math.NaN()} {
		spec := RandomSpec(1)
		spec.BCWCRatio = ratio
		if _, _, err := spec.Pair(); err == nil {
			t.Errorf("bcwc_ratio %v accepted", ratio)
		}
		if _, err := Check(spec); err == nil {
			t.Errorf("Check accepted bcwc_ratio %v", ratio)
		}
	}
}
