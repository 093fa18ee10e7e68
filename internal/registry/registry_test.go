package registry

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/refimpl"
	"github.com/eadvfs/eadvfs/internal/sched"
)

// TestBuiltinEnumerationOrder pins registration order as API: the facade's
// Policies()/Predictors() lists (and the capabilities document) present
// this order, and example output is golden-tested against it.
func TestBuiltinEnumerationOrder(t *testing.T) {
	wantPolicies := []string{"ea-dvfs", "ea-dvfs-dynamic", "lsa", "edf", "static-dvfs", "greedy-stretch"}
	if got := PolicyNames(); !equalPrefix(got, wantPolicies) {
		t.Errorf("PolicyNames() = %v, want prefix %v", got, wantPolicies)
	}
	wantPredictors := []string{"ewma", "oracle", "slot-ewma", "wcma", "moving-average", "last-value", "zero"}
	if got := PredictorNames(); !equalPrefix(got, wantPredictors) {
		t.Errorf("PredictorNames() = %v, want prefix %v", got, wantPredictors)
	}
	wantSources := []string{"solar", "constant", "two-mode", "trace"}
	if got := SourceNames(); !equalPrefix(got, wantSources) {
		t.Errorf("SourceNames() = %v, want prefix %v", got, wantSources)
	}
	if got := TaskModelNames(); len(got) == 0 || got[0] != "periodic" {
		t.Errorf("TaskModelNames() = %v, want periodic first", got)
	}
}

// equalPrefix reports whether got begins with want — other test binaries
// (and future scenario packages) may register more entries after the
// built-ins, but the built-in prefix must hold.
func equalPrefix(got, want []string) bool {
	if len(got) < len(want) {
		return false
	}
	for i, w := range want {
		if got[i] != w {
			return false
		}
	}
	return true
}

// lookups are the per-kind resolution surfaces the table-driven tests
// below sweep: every kind must behave identically through the one
// generic table.
var lookups = []struct {
	kind  Kind
	get   func(string) error
	names func() []string
}{
	{KindPolicy, func(n string) error { _, err := Policy(n); return err }, PolicyNames},
	{KindSource, func(n string) error { _, err := Source(n); return err }, SourceNames},
	{KindPredictor, func(n string) error { _, err := Predictor(n); return err }, PredictorNames},
	{KindTaskModel, func(n string) error { _, err := TaskModel(n); return err }, TaskModelNames},
}

// registrars register a def of each kind with the given name and
// schema, optionally with a nil constructor (New, or Generate for task
// models). Constructors are borrowed from the built-ins.
func registrars(t *testing.T) map[Kind]func(name string, nilCtor bool, params []Param) {
	t.Helper()
	src, err := Source("solar")
	if err != nil {
		t.Fatal(err)
	}
	pred, err := Predictor("ewma")
	if err != nil {
		t.Fatal(err)
	}
	model, err := TaskModel("periodic")
	if err != nil {
		t.Fatal(err)
	}
	newPolicy := func(Params) (sched.Policy, error) { return sched.EDF{}, nil }
	return map[Kind]func(string, bool, []Param){
		KindPolicy: func(name string, nilCtor bool, ps []Param) {
			d := PolicyDef{Name: name, Params: ps, New: newPolicy}
			if nilCtor {
				d.New = nil
			}
			RegisterPolicy(d)
		},
		KindSource: func(name string, nilCtor bool, ps []Param) {
			d := SourceDef{Name: name, Params: ps, New: src.New}
			if nilCtor {
				d.New = nil
			}
			RegisterSource(d)
		},
		KindPredictor: func(name string, nilCtor bool, ps []Param) {
			d := PredictorDef{Name: name, Params: ps, New: pred.New}
			if nilCtor {
				d.New = nil
			}
			RegisterPredictor(d)
		},
		KindTaskModel: func(name string, nilCtor bool, ps []Param) {
			d := TaskModelDef{Name: name, Params: ps, Generate: model.Generate}
			if nilCtor {
				d.Generate = nil
			}
			RegisterTaskModel(d)
		},
	}
}

// mustPanic runs register and fails unless it panics with a string
// message containing want.
func mustPanic(t *testing.T, want string, register func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("registration did not panic (want %q)", want)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic message %v does not mention %q", r, want)
		}
	}()
	register()
}

// TestDuplicateRegistrationPanics: a duplicate name is an init-time
// programming error, every kind.
func TestDuplicateRegistrationPanics(t *testing.T) {
	reg := registrars(t)
	builtin := map[Kind]string{KindPolicy: "ea-dvfs", KindSource: "solar", KindPredictor: "ewma", KindTaskModel: "periodic"}
	for _, l := range lookups {
		t.Run(string(l.kind), func(t *testing.T) {
			mustPanic(t, "duplicate", func() { reg[l.kind](builtin[l.kind], false, nil) })
		})
	}
}

// TestMalformedRegistrationPanics: empty names, nil constructors and
// self-rejecting parameter schemas fail at registration, not at first
// use — every kind.
func TestMalformedRegistrationPanics(t *testing.T) {
	reg := registrars(t)
	min := 1.0
	cases := []struct {
		name, def, want string
		nilCtor         bool
		params          []Param
	}{
		{"empty name", "", "empty name", false, nil},
		{"nil constructor", "t-nil-ctor", "nil constructor", true, nil},
		{"unnamed param", "t-unnamed-param", "no name", false, []Param{{Type: TypeFloat}}},
		{"duplicate param", "t-dup-param", "twice", false,
			[]Param{{Name: "x", Type: TypeFloat}, {Name: "x", Type: TypeFloat}}},
		{"unknown param type", "t-bad-type", "unknown type", false, []Param{{Name: "x", Type: "complex128"}}},
		{"default violates own schema", "t-bad-default", "default rejected", false,
			[]Param{{Name: "x", Type: TypeFloat, Default: 0.0, Min: &min}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, l := range lookups {
				t.Run(string(l.kind), func(t *testing.T) {
					mustPanic(t, tc.want, func() { reg[l.kind](tc.def, tc.nilCtor, tc.params) })
					if tc.def != "" && l.get(tc.def) == nil {
						t.Errorf("malformed %s %q was registered", l.kind, tc.def)
					}
				})
			}
		})
	}
}

// TestUnknownLookupError: unknown names yield the typed *UnknownError
// carrying the kind, the name and the registration-ordered list of
// registered names — the text a client sees in an HTTP 400 body. Kinds
// without an alias reject the empty name the same way.
func TestUnknownLookupError(t *testing.T) {
	for _, l := range lookups {
		names := []string{"no-such-" + strings.ReplaceAll(string(l.kind), " ", "-")}
		if l.kind == KindPolicy || l.kind == KindSource {
			names = append(names, "")
		}
		for _, name := range names {
			err := l.get(name)
			var ue *UnknownError
			if !errors.As(err, &ue) {
				t.Fatalf("%s lookup of %q: error is %T, want *UnknownError", l.kind, name, err)
			}
			if ue.Kind != l.kind || ue.Name != name {
				t.Errorf("%s lookup of %q: UnknownError fields = %+v", l.kind, name, ue)
			}
			if want := l.names(); !reflect.DeepEqual(ue.Known, want) {
				t.Errorf("%s lookup of %q: Known = %v, want %v", l.kind, name, ue.Known, want)
			}
			for _, known := range ue.Known {
				if !strings.Contains(err.Error(), known) {
					t.Errorf("error %q does not list registered %s %q", err, l.kind, known)
				}
			}
		}
	}
}

// TestLookupAliases: the empty predictor and task-model names alias the
// paper defaults, preserving pre-registry leniency.
func TestLookupAliases(t *testing.T) {
	if d, err := Predictor(""); err != nil || d.Name != "ewma" {
		t.Errorf("Predictor(\"\") = %v, %v; want ewma", d.Name, err)
	}
	if d, err := TaskModel(""); err != nil || d.Name != "periodic" {
		t.Errorf("TaskModel(\"\") = %v, %v; want periodic", d.Name, err)
	}
}

// TestValidateParams is the schema validator's error-path table: unknown
// names, type mismatches, range violations, non-finite numbers, missing
// required parameters — each rejected with a typed *ParamError naming
// the offending parameter.
func TestValidateParams(t *testing.T) {
	min, max := 0.0, 1.0
	schema := []Param{
		{Name: "u", Type: TypeFloat, Min: &min, Max: &max},
		{Name: "n", Type: TypeInt},
		{Name: "seed", Type: TypeUint},
		{Name: "on", Type: TypeBool},
		{Name: "label", Type: TypeString},
		{Name: "samples", Type: TypeFloats, Required: true},
	}
	ok := Params{"samples": []float64{1, 2}}
	cases := []struct {
		name    string
		params  Params
		param   string // expected offending parameter
		wantErr bool
	}{
		{"valid full", Params{"u": 0.5, "n": 3, "seed": uint64(7), "on": true, "label": "x", "samples": []any{1.0, 2.0}}, "", false},
		{"valid minimal", ok, "", false},
		{"unknown param", Params{"samples": []float64{1}, "bogus": 1.0}, "bogus", true},
		{"wrong type string for float", Params{"samples": []float64{1}, "u": "high"}, "u", true},
		{"float for int", Params{"samples": []float64{1}, "n": 2.5}, "n", true},
		{"negative for uint", Params{"samples": []float64{1}, "seed": -1}, "seed", true},
		{"below min", Params{"samples": []float64{1}, "u": -0.1}, "u", true},
		{"above max", Params{"samples": []float64{1}, "u": 1.5}, "u", true},
		{"NaN", Params{"samples": []float64{1}, "u": nan()}, "u", true},
		{"bool as int", Params{"samples": []float64{1}, "n": true}, "n", true},
		{"non-numeric slice element", Params{"samples": []any{1.0, "x"}}, "samples", true},
		{"missing required", Params{"u": 0.5}, "samples", true},
		{"nil params missing required", nil, "samples", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateParams(KindPolicy, "test-owner", schema, tc.params)
			if !tc.wantErr {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			var pe *ParamError
			if !errors.As(err, &pe) {
				t.Fatalf("error is %T (%v), want *ParamError", err, err)
			}
			if pe.Param != tc.param {
				t.Errorf("offending param = %q, want %q (err: %v)", pe.Param, tc.param, err)
			}
		})
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

// TestPolicyFactoryValidates: Factory surfaces schema violations at
// resolve time, and a valid resolution probes the constructor once so a
// bad combination cannot panic mid-sweep.
func TestPolicyFactoryValidates(t *testing.T) {
	def, err := Policy("static-dvfs")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := def.Factory(Params{"utilization": 2.0}); err == nil {
		t.Error("utilization 2.0 accepted despite max 1")
	}
	if _, err := def.Factory(Params{"bogus": 1.0}); err == nil {
		t.Error("unknown parameter accepted")
	}
	f, err := def.Factory(Params{"utilization": 0.6})
	if err != nil {
		t.Fatal(err)
	}
	pol := f()
	if pol.Name() != "static-dvfs" {
		t.Errorf("built policy %q", pol.Name())
	}
	// RefFactory of a Ref-less def falls back to the optimized
	// constructor — differential coverage via the shared implementation.
	rf, err := def.RefFactory(Params{"utilization": 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if rf().Name() != "static-dvfs" {
		t.Error("RefFactory fallback built a different policy")
	}
}

// TestPredictorParamValidation: predictor constructors run their checked
// validation under Factory, so a bad alpha errors instead of panicking.
func TestPredictorParamValidation(t *testing.T) {
	def, err := Predictor("ewma")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := def.Factory(Params{"alpha": 7.0}); err == nil {
		t.Error("alpha 7.0 accepted")
	}
	f, err := def.Factory(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := f(nil).(*energy.EWMA); !ok {
		t.Errorf("default-built predictor %T", got)
	}
	rf, err := def.RefFactory(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := rf(nil).(*refimpl.EWMA); !ok {
		t.Errorf("default-built reference predictor %T", got)
	}
}
