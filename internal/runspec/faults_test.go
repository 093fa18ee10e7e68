package runspec_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/eadvfs/eadvfs/internal/runspec"
	"github.com/eadvfs/eadvfs/internal/sim"
	"github.com/eadvfs/eadvfs/internal/task"
)

var update = flag.Bool("update", false, "rewrite testdata/faults.golden from the current build")

// TestFaultIntensityPinned pins the degradation counters and miss tallies
// of the canonical fault model, compiled from fault_intensity and
// fault_seed, at five intensities and three seeds under two policies on
// both engines. Every injector parameter is a function of the intensity,
// so any change to that derivation, down to a rounding step, moves a line
// of testdata/faults.golden.
func TestFaultIntensityPinned(t *testing.T) {
	var b bytes.Buffer
	for _, ref := range []bool{false, true} {
		for _, policy := range []string{"ea-dvfs", "edf"} {
			for _, x := range []float64{0.05, 0.1, 0.25, 0.3, 0.5, 0.7, 0.75, 0.9, 1} {
				for _, seed := range []uint64{0, 7, 1 << 40} {
					doc := runspec.Spec{
						Policy:  policy,
						Horizon: 12000,
						Tasks: []task.Task{
							{ID: 1, Period: 20, Deadline: 20, WCET: 3},
							{ID: 2, Period: 30, Deadline: 30, WCET: 4},
							{ID: 3, Period: 50, Deadline: 50, WCET: 6},
						},
						Source:         runspec.SourceSpec{Kind: "solar", Seed: 7, Amplitude: 10},
						Capacity:       300,
						Initial:        300,
						PMax:           10,
						FaultIntensity: x,
						FaultSeed:      seed,
					}
					cfg, err := doc.Compile(ref)
					if err != nil {
						t.Fatal(err)
					}
					cfg.CheckInvariants = true
					res, err := sim.Run(cfg)
					if err != nil {
						t.Fatalf("ref=%v %s x=%g seed=%d: %v", ref, policy, x, seed, err)
					}
					fmt.Fprintf(&b, "ref=%v %s x=%g seed=%d miss=%+v deg=%+v\n",
						ref, policy, x, seed, res.Miss, res.Degradation)
				}
			}
		}
	}
	path := filepath.Join("testdata", "faults.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("fault outcomes moved:\n got:\n%s\nwant:\n%s", b.Bytes(), want)
	}
}
