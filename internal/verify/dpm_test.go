package verify

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/eadvfs/eadvfs/internal/experiment"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/refimpl"
	"github.com/eadvfs/eadvfs/internal/registry"
	"github.com/eadvfs/eadvfs/internal/sched"
	"github.com/eadvfs/eadvfs/internal/sim"
	"github.com/eadvfs/eadvfs/internal/storage"
)

// TestDPMStoreEmptiesWhileAsleep pins the runs in which the sleep-state
// draw empties a small store: a sleep or wake segment must end at the
// store's depletion and stall there, as run and idle segments do, rather
// than flow past empty (which storage.Flow rejects with a panic). Both
// engines must survive the runs and agree bit for bit.
func TestDPMStoreEmptiesWhileAsleep(t *testing.T) {
	cases := []struct {
		seed uint64
		rep  int
	}{{12, 2}, {9, 6}, {14, 9}}
	for _, c := range cases {
		t.Run(fmt.Sprintf("seed%d-rep%d", c.seed, c.rep), func(t *testing.T) {
			spec := experiment.DefaultSpec()
			spec.Seed = c.seed
			spec.TaskModel = "stochastic-periodic"
			spec.TaskParams = map[string]any{"bc_ratio": 0.25}
			spec.Sleep = "default"
			rep, err := experiment.Replicate(spec, c.rep)
			if err != nil {
				t.Fatal(err)
			}
			def, err := registry.Policy("lsa-reclaim")
			if err != nil {
				t.Fatal(err)
			}
			optPolicy, err := def.Factory(nil)
			if err != nil {
				t.Fatal(err)
			}
			refPolicy, err := def.RefFactory(nil)
			if err != nil {
				t.Fatal(err)
			}
			pred, err := registry.Predictor(spec.Predictor)
			if err != nil {
				t.Fatal(err)
			}
			optPred, err := pred.Factory(nil)
			if err != nil {
				t.Fatal(err)
			}
			refPred, err := pred.RefFactory(nil)
			if err != nil {
				t.Fatal(err)
			}
			build := func(policy func() sched.Policy, predictor registry.PredictorFactory) *sim.Config {
				src := rep.Source()
				return &sim.Config{
					Horizon:   spec.Horizon,
					Tasks:     rep.Tasks,
					Source:    src,
					Predictor: predictor(src),
					Store:     storage.NewIdeal(200),
					CPU:       spec.Processor(),
					Policy:    policy(),
					// Execution draws decorrelated from the solar path.
					ExecSeed: rep.SourceSeed ^ 0x9e3779b97f4a7c15,
				}
			}
			opt, ref := build(optPolicy, optPred), build(refPolicy, refPred)
			optRec, refRec := obs.NewRecorder(), obs.NewRecorder()
			opt.Probe, ref.Probe = optRec, refRec
			got, err := sim.Run(opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refimpl.Run(ref)
			if err != nil {
				t.Fatal(err)
			}
			var diffs []string
			bitDiff("Result", reflect.ValueOf(*got), reflect.ValueOf(*want), &diffs)
			bitDiff("Decisions", reflect.ValueOf(optRec.Decisions()), reflect.ValueOf(refRec.Decisions()), &diffs)
			bitDiff("Events", reflect.ValueOf(optRec.Events()), reflect.ValueOf(refRec.Events()), &diffs)
			if len(diffs) > 0 {
				t.Fatalf("engines disagree:\n%s", strings.Join(diffs, "\n"))
			}
			if !sleepThenStall(optRec.Events()) {
				t.Fatal("no sleep segment ends in a stall: the run no longer empties the store while asleep")
			}
		})
	}
}

// sleepThenStall reports whether a sleep segment is directly followed by a
// stall segment — the store emptied under the sleep draw.
func sleepThenStall(events []obs.Event) bool {
	prev := ""
	for _, ev := range events {
		if ev.Kind != obs.KindSegment {
			continue
		}
		if prev == sim.ModeSleep.String() && ev.Mode == sim.ModeStall.String() {
			return true
		}
		prev = ev.Mode
	}
	return false
}
