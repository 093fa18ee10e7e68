package runspec_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/runspec"
)

func paper(t *testing.T, name string) *runspec.Spec {
	t.Helper()
	doc, err := runspec.Paper(name)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestCompileRejects: every out-of-range member is a document error that
// names the member — never a panic, and never a silently different run.
func TestCompileRejects(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name, field string
		edit        func(*runspec.Spec)
	}{
		{"fault intensity NaN", "fault_intensity", func(s *runspec.Spec) { s.FaultIntensity = nan }},
		{"fault intensity negative", "fault_intensity", func(s *runspec.Spec) { s.FaultIntensity = -0.1 }},
		{"fault intensity above 1", "fault_intensity", func(s *runspec.Spec) { s.FaultIntensity = 1.5 }},
		{"bcwc ratio", "bcwc_ratio", func(s *runspec.Spec) { s.BCWCRatio = 1.5 }},
		{"capacity", "capacity", func(s *runspec.Spec) { s.Capacity = -1 }},
		{"initial above capacity", "initial", func(s *runspec.Spec) { s.Initial = 2e6 }},
		{"initial NaN", "initial", func(s *runspec.Spec) { s.Initial = nan }},
		{"cpu", "cpu", func(s *runspec.Spec) { s.CPU = "z80" }},
		{"pmax on a fixed table", "pmax", func(s *runspec.Spec) { s.CPU = "fig3" }},
		{"pmax negative", "pmax", func(s *runspec.Spec) { s.PMax = -8 }},
		{"pmax NaN", "pmax", func(s *runspec.Spec) { s.PMax = nan }},
		{"pmax infinite", "pmax", func(s *runspec.Spec) { s.PMax = math.Inf(1) }},
		{"pmax underflows the table", "pmax", func(s *runspec.Spec) { s.PMax = 5e-324 }},
		{"sleep", "sleep", func(s *runspec.Spec) { s.Sleep = "coma" }},
		{"source", "wind", func(s *runspec.Spec) { s.Source.Kind = "wind" }},
		{"policy", "oracle-edf", func(s *runspec.Spec) { s.Policy = "oracle-edf" }},
		{"predictor", "crystal-ball", func(s *runspec.Spec) { s.Predictor = "crystal-ball" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			doc := paper(t, "fig1")
			tc.edit(doc)
			for _, ref := range []bool{false, true} {
				_, err := doc.Compile(ref)
				if err == nil {
					t.Fatalf("ref=%v: accepted", ref)
				}
				if !strings.Contains(err.Error(), tc.field) {
					t.Errorf("ref=%v: error %q does not name %s", ref, err, tc.field)
				}
			}
		})
	}
}

// TestProcessorPresets: pmax 0 keeps a preset's own table, and a
// positive pmax builds exactly the rescaled table the cpu package does —
// "xscale" at 0 is cpu.XScale, not cpu.XScaleScaled(10).
func TestProcessorPresets(t *testing.T) {
	for _, tc := range []struct {
		cpu  string
		pmax float64
		want *cpu.Processor
	}{
		{"", 0, cpu.XScale()},
		{"xscale", 0, cpu.XScale()},
		{"xscale", 10, cpu.XScaleScaled(10)},
		{"two-speed", 0, cpu.TwoSpeed(4)},
		{"two-speed", 8, cpu.TwoSpeed(8)},
		{"pxa270", 0, cpu.PXA270()},
		{"sensor-mcu", 0, cpu.SensorNodeMCU()},
		{"fig3", 0, cpu.Fig3()},
	} {
		got, err := (&runspec.Spec{CPU: tc.cpu, PMax: tc.pmax}).Processor()
		if err != nil {
			t.Fatalf("%q pmax %v: %v", tc.cpu, tc.pmax, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q pmax %v: got %+v, want %+v", tc.cpu, tc.pmax, got, tc.want)
		}
	}
}

// TestPaperDocuments pins the worked examples to the paper's parameters:
// §2's τ1 = (0, 16, 4), τ2 = (5, 16, 1.5), EC(0) = 24, P_s = 0.5 on the
// two-speed processor at P_max = 8, and §4.3's τ2 = (5, 12, 1.5), EC(0) =
// 32, no harvest, on the Fig 3 processor. Each call returns a fresh copy.
func TestPaperDocuments(t *testing.T) {
	for _, tc := range []struct {
		name             string
		horizon, level   float64
		power, deadline2 float64
		proc             *cpu.Processor
	}{
		{"fig1", 25, 24, 0.5, 16, cpu.TwoSpeed(8)},
		{"fig3", 20, 32, 0, 12, cpu.Fig3()},
	} {
		doc := paper(t, tc.name)
		cfg, err := doc.Compile(false)
		if err != nil {
			t.Fatal(err)
		}
		tk := cfg.Tasks
		if len(tk) != 2 || tk[0].Offset != 0 || tk[0].Deadline != 16 || tk[0].WCET != 4 ||
			tk[1].Offset != 5 || tk[1].Deadline != tc.deadline2 || tk[1].WCET != 1.5 {
			t.Errorf("%s: tasks %+v", tc.name, tk)
		}
		if cfg.Horizon != tc.horizon || cfg.Store.Level() != tc.level || cfg.Store.Capacity() != 1e6 {
			t.Errorf("%s: horizon %v, store %v of %v", tc.name, cfg.Horizon, cfg.Store.Level(), cfg.Store.Capacity())
		}
		if _, oracle := cfg.Predictor.(*energy.Oracle); cfg.Source != (energy.Constant{P: tc.power}) || !oracle {
			t.Errorf("%s: source %v, predictor %T", tc.name, cfg.Source, cfg.Predictor)
		}
		if !reflect.DeepEqual(cfg.CPU, tc.proc) {
			t.Errorf("%s: processor %+v, want %+v", tc.name, cfg.CPU, tc.proc)
		}
		doc.Tasks[0].WCET = 99
		if again := paper(t, tc.name); again.Tasks[0].WCET != 4 {
			t.Errorf("%s: Paper returned a shared document", tc.name)
		}
	}
	if _, err := runspec.Paper("fig9"); err == nil {
		t.Error("unknown example accepted")
	}
}
