// Package registry is the pluggable scenario registry: the single place
// where scheduling policies, energy sources, harvest predictors and task
// models are known by name. Every layer that used to switch on name
// strings — the eadvfs facade, the experiment harness, the CLIs, the
// HTTP service and the differential-verification harness — resolves
// through it instead, so a new scenario lands as one registration, not
// engine surgery (ROADMAP item 5, DESIGN.md §16).
//
// A registration is self-describing: a name, help text, and a parameter
// schema (name, type, default, range, required) that the registry
// validates before any constructor runs. The schemas are serialized
// verbatim by GET /v1/capabilities (internal/service), so a fleet
// coordinator can enumerate what a worker supports without guessing.
//
// Registrations carry an optional reference-implementation hook (Ref):
// the differential harness (internal/verify) auto-enumerates the registry
// and sweeps EVERY registered policy against the reference engine, using
// Ref when a hand-written naive counterpart exists (internal/refimpl) and
// falling back to the optimized constructor otherwise — the fallback
// still cross-checks the two engines on a shared policy implementation.
// Registering a policy therefore buys its differential coverage for free,
// and a registration that diverges from the reference engine fails
// `go test ./internal/verify` with a minimized counterexample.
//
// Duplicate registrations panic (they are init-time programming errors);
// unknown-name lookups return a typed *UnknownError listing the
// registered names, which the service surfaces as HTTP 400.
package registry

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"

	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/rng"
	"github.com/eadvfs/eadvfs/internal/sched"
	"github.com/eadvfs/eadvfs/internal/task"
)

// Kind names a registry namespace.
type Kind string

// The registry's namespaces.
const (
	KindPolicy    Kind = "policy"
	KindSource    Kind = "source"
	KindPredictor Kind = "predictor"
	KindTaskModel Kind = "task model"
)

// ParamType is the wire type of a parameter value.
type ParamType string

// Parameter value types. JSON numbers arrive as float64; Int and Uint
// additionally demand integral (and for Uint non-negative) values.
const (
	TypeFloat  ParamType = "float"
	TypeInt    ParamType = "int"
	TypeUint   ParamType = "uint"
	TypeBool   ParamType = "bool"
	TypeString ParamType = "string"
	TypeFloats ParamType = "[]float"
)

// Param is one entry of a registration's parameter schema. Min/Max bound
// numeric parameters inclusively when non-nil.
type Param struct {
	Name     string    `json:"name"`
	Type     ParamType `json:"type"`
	Help     string    `json:"help,omitempty"`
	Default  any       `json:"default,omitempty"`
	Required bool      `json:"required,omitempty"`
	Min      *float64  `json:"min,omitempty"`
	Max      *float64  `json:"max,omitempty"`
}

// Params carries the caller-supplied parameter values of one resolution,
// keyed by parameter name. Values may come from JSON (float64, bool,
// string, []any) or from Go callers (any numeric type, []float64); the
// typed getters coerce both.
type Params map[string]any

// toFloat coerces the numeric types a Params value can legally hold.
func toFloat(v any) (float64, bool) {
	switch n := v.(type) {
	case float64:
		return n, true
	case float32:
		return float64(n), true
	case int:
		return float64(n), true
	case int64:
		return float64(n), true
	case uint64:
		return float64(n), true
	case uint:
		return float64(n), true
	}
	return 0, false
}

// Float returns the named parameter as a float64, or def when absent.
func (p Params) Float(name string, def float64) float64 {
	if v, ok := p[name]; ok {
		if f, ok := toFloat(v); ok {
			return f
		}
	}
	return def
}

// Int returns the named parameter as an int, or def when absent.
func (p Params) Int(name string, def int) int {
	if v, ok := p[name]; ok {
		switch n := v.(type) {
		case int:
			return n
		case int64:
			return int(n)
		}
		if f, ok := toFloat(v); ok {
			return int(f)
		}
	}
	return def
}

// Uint64 returns the named parameter as a uint64, or def when absent.
// Integer-typed values pass through exactly — a 64-bit seed must not
// round-trip through float64 (bits above 2⁵³ would be lost, and the
// seed is the trace's identity).
func (p Params) Uint64(name string, def uint64) uint64 {
	if v, ok := p[name]; ok {
		switch n := v.(type) {
		case uint64:
			return n
		case uint:
			return uint64(n)
		case int64:
			if n >= 0 {
				return uint64(n)
			}
			return def
		case int:
			if n >= 0 {
				return uint64(n)
			}
			return def
		}
		if f, ok := toFloat(v); ok && f >= 0 {
			return uint64(f)
		}
	}
	return def
}

// Str returns the named parameter as a string, or def when absent.
func (p Params) Str(name, def string) string {
	if v, ok := p[name]; ok {
		if s, ok := v.(string); ok {
			return s
		}
	}
	return def
}

// Floats returns the named parameter as a []float64, or nil when absent.
// JSON arrays arrive as []any and are converted.
func (p Params) Floats(name string) []float64 {
	v, ok := p[name]
	if !ok {
		return nil
	}
	switch a := v.(type) {
	case []float64:
		return a
	case []any:
		out := make([]float64, len(a))
		for i, e := range a {
			f, ok := toFloat(e)
			if !ok {
				return nil
			}
			out[i] = f
		}
		return out
	}
	return nil
}

// UnknownError reports a lookup of a name nobody registered. Its message
// lists the registered names, so the HTTP 400 a bad spec earns tells the
// client exactly what this build supports.
type UnknownError struct {
	Kind  Kind
	Name  string
	Known []string
}

func (e *UnknownError) Error() string {
	return fmt.Sprintf("registry: unknown %s %q (registered: %s)",
		e.Kind, e.Name, strings.Join(e.Known, ", "))
}

// ParamError reports a parameter value the schema rejects.
type ParamError struct {
	Kind   Kind
	Owner  string // the registration the parameters were meant for
	Param  string
	Reason string
}

func (e *ParamError) Error() string {
	return fmt.Sprintf("registry: %s %q: parameter %q: %s", e.Kind, e.Owner, e.Param, e.Reason)
}

// checkValue type- and range-checks one supplied value against its schema
// entry.
func checkValue(kind Kind, owner string, sp Param, v any) error {
	bad := func(reason string) error {
		return &ParamError{Kind: kind, Owner: owner, Param: sp.Name, Reason: reason}
	}
	switch sp.Type {
	case TypeFloat, TypeInt, TypeUint:
		f, ok := toFloat(v)
		if !ok {
			return bad(fmt.Sprintf("want %s, got %T", sp.Type, v))
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return bad(fmt.Sprintf("non-finite value %v", f))
		}
		if sp.Type != TypeFloat && f != math.Trunc(f) {
			return bad(fmt.Sprintf("want an integer, got %v", f))
		}
		if sp.Type == TypeUint && f < 0 {
			return bad(fmt.Sprintf("want a non-negative integer, got %v", f))
		}
		if sp.Min != nil && f < *sp.Min {
			return bad(fmt.Sprintf("%v below minimum %v", f, *sp.Min))
		}
		if sp.Max != nil && f > *sp.Max {
			return bad(fmt.Sprintf("%v above maximum %v", f, *sp.Max))
		}
	case TypeBool:
		if _, ok := v.(bool); !ok {
			return bad(fmt.Sprintf("want bool, got %T", v))
		}
	case TypeString:
		if _, ok := v.(string); !ok {
			return bad(fmt.Sprintf("want string, got %T", v))
		}
	case TypeFloats:
		switch a := v.(type) {
		case []float64:
		case []any:
			for _, e := range a {
				if _, ok := toFloat(e); !ok {
					return bad(fmt.Sprintf("want []float, element is %T", e))
				}
			}
		default:
			return bad(fmt.Sprintf("want []float, got %T", v))
		}
	default:
		return bad(fmt.Sprintf("schema declares unknown type %q", sp.Type))
	}
	return nil
}

// ValidateParams checks supplied parameter values against a schema:
// every supplied name must exist in the schema with a value of the
// declared type inside the declared range, and every required parameter
// must be supplied. Errors are typed *ParamError values.
func ValidateParams(kind Kind, owner string, schema []Param, p Params) error {
	byName := make(map[string]Param, len(schema))
	names := make([]string, 0, len(schema))
	for _, sp := range schema {
		byName[sp.Name] = sp
		names = append(names, sp.Name)
	}
	// Deterministic error selection: report the alphabetically first
	// offending supplied parameter, not map-iteration roulette.
	supplied := make([]string, 0, len(p))
	for name := range p {
		supplied = append(supplied, name)
	}
	sort.Strings(supplied)
	for _, name := range supplied {
		sp, ok := byName[name]
		if !ok {
			reason := "unknown parameter (schema has none)"
			if len(names) > 0 {
				reason = fmt.Sprintf("unknown parameter (schema: %s)", strings.Join(names, ", "))
			}
			return &ParamError{Kind: kind, Owner: owner, Param: name, Reason: reason}
		}
		if err := checkValue(kind, owner, sp, p[name]); err != nil {
			return err
		}
	}
	for _, sp := range schema {
		if sp.Required {
			if _, ok := p[sp.Name]; !ok {
				return &ParamError{Kind: kind, Owner: owner, Param: sp.Name, Reason: "required parameter missing"}
			}
		}
	}
	return nil
}

// PredictorFactory builds a fresh predictor per run, given the run's
// energy source (only the oracle uses it).
type PredictorFactory func(src energy.Source) energy.Predictor

// PolicyDef registers a scheduling policy. New builds a fresh instance
// per run (EA-DVFS carries per-job state, so instances must never be
// shared across runs). Ref, when non-nil, builds the naive
// reference-engine counterpart (internal/refimpl) the differential
// harness compares against; nil falls back to New, which still
// cross-checks the optimized engine against the reference engine on a
// shared policy implementation.
type PolicyDef struct {
	Name   string
	Help   string
	Params []Param
	New    func(Params) (sched.Policy, error)
	Ref    func(Params) (sched.Policy, error)
}

// HasParam reports whether the def's schema declares the named parameter.
func (d PolicyDef) HasParam(name string) bool { return hasParam(d.Params, name) }

// Factory validates params against the schema, probes the constructor
// once (so a bad combination fails at resolution, not mid-sweep), and
// returns a per-run factory.
func (d PolicyDef) Factory(p Params) (func() sched.Policy, error) {
	if err := ValidateParams(KindPolicy, d.Name, d.Params, p); err != nil {
		return nil, err
	}
	if _, err := d.New(p); err != nil {
		return nil, err
	}
	return func() sched.Policy {
		pol, err := d.New(p)
		if err != nil {
			panic(fmt.Sprintf("registry: policy %q constructor failed after validation: %v", d.Name, err))
		}
		return pol
	}, nil
}

// RefFactory is Factory for the reference-engine side: Factory's path
// run on Ref when present, on the optimized constructor otherwise.
func (d PolicyDef) RefFactory(p Params) (func() sched.Policy, error) {
	if d.Ref != nil {
		d.New = d.Ref
	}
	return d.Factory(p)
}

// SourceDef registers an energy source kind. New builds a fresh instance
// per call: memoizing sources (SolarModel) are deterministic in their
// seed, so two instances built from the same params realize bit-identical
// traces — the isolation rule the differential harness depends on.
type SourceDef struct {
	Name   string
	Help   string
	Params []Param
	New    func(Params) (energy.Source, error)
}

// Build validates params and constructs the source.
func (d SourceDef) Build(p Params) (energy.Source, error) {
	if err := ValidateParams(KindSource, d.Name, d.Params, p); err != nil {
		return nil, err
	}
	return d.New(p)
}

// PredictorDef registers a harvest predictor. Ref mirrors PolicyDef.Ref.
type PredictorDef struct {
	Name   string
	Help   string
	Params []Param
	New    func(Params) (PredictorFactory, error)
	Ref    func(Params) (PredictorFactory, error)
}

// HasParam reports whether the def's schema declares the named parameter.
func (d PredictorDef) HasParam(name string) bool { return hasParam(d.Params, name) }

// Factory validates params and returns the per-run predictor factory.
func (d PredictorDef) Factory(p Params) (PredictorFactory, error) {
	if err := ValidateParams(KindPredictor, d.Name, d.Params, p); err != nil {
		return nil, err
	}
	return d.New(p)
}

// RefFactory is Factory for the reference-engine side: Factory's path
// run on Ref when present, on the optimized constructor otherwise.
func (d PredictorDef) RefFactory(p Params) (PredictorFactory, error) {
	if d.Ref != nil {
		d.New = d.Ref
	}
	return d.Factory(p)
}

// TaskGen is the contextual material a task model derives a workload
// from: the knobs every generator shares, bound by the caller (spec
// utilization, processor power, source mean) rather than spelled per
// registration.
type TaskGen struct {
	NumTasks         int
	TargetU          float64
	MeanHarvestPower float64
	PMax             float64
}

// TaskModelDef registers a workload generator.
type TaskModelDef struct {
	Name     string
	Help     string
	Params   []Param
	Generate func(g TaskGen, p Params, r *rng.RNG) ([]task.Task, error)
}

// Build validates params and generates the task set.
func (d TaskModelDef) Build(g TaskGen, p Params, r *rng.RNG) ([]task.Task, error) {
	if err := ValidateParams(KindTaskModel, d.Name, d.Params, p); err != nil {
		return nil, err
	}
	return d.Generate(g, p, r)
}

func hasParam(schema []Param, name string) bool {
	for _, sp := range schema {
		if sp.Name == name {
			return true
		}
	}
	return false
}

// entry exposes what the registry table needs of a def: its wire
// description and its constructor (checked non-nil at registration).
func (d PolicyDef) entry() (Capability, any)    { return Capability{d.Name, d.Help, d.Params}, d.New }
func (d SourceDef) entry() (Capability, any)    { return Capability{d.Name, d.Help, d.Params}, d.New }
func (d PredictorDef) entry() (Capability, any) { return Capability{d.Name, d.Help, d.Params}, d.New }
func (d TaskModelDef) entry() (Capability, any) {
	return Capability{d.Name, d.Help, d.Params}, d.Generate
}

// table is the registry proper for one kind. Registrations happen at
// init time (builtin.go and any future scenario packages); lookups
// happen on every resolution, so reads take the shared lock.
// Enumeration order is registration order — deterministic because init
// order is — and is the order capabilities documents and CLI help lists
// present. alias, when set, is the name the empty name resolves to.
type table[D interface{ entry() (Capability, any) }] struct {
	kind  Kind
	alias string
	mu    sync.RWMutex
	defs  []D
}

// The registry's four tables. A new kind is one more table value.
var (
	policies   = &table[PolicyDef]{kind: KindPolicy}
	sources    = &table[SourceDef]{kind: KindSource}
	predictors = &table[PredictorDef]{kind: KindPredictor, alias: "ewma"}
	taskModels = &table[TaskModelDef]{kind: KindTaskModel, alias: "periodic"}
)

// register adds a def, panicking on a duplicate or malformed one.
func (t *table[D]) register(d D) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ctor := d.entry()
	_, taken := t.find(c.Name)
	checkDef(t.kind, c.Name, ctor, c.Params, taken)
	t.defs = append(t.defs, d)
}

// find scans for a name; the caller holds the lock.
func (t *table[D]) find(name string) (D, bool) {
	for _, d := range t.defs {
		if c, _ := d.entry(); c.Name == name {
			return d, true
		}
	}
	var zero D
	return zero, false
}

// get resolves a name (the empty name through the alias); a miss is a
// typed *UnknownError listing the registered names.
func (t *table[D]) get(name string) (D, error) {
	if name == "" {
		name = t.alias
	}
	t.mu.RLock()
	d, ok := t.find(name)
	t.mu.RUnlock()
	if !ok {
		return d, &UnknownError{Kind: t.kind, Name: name, Known: t.names()}
	}
	return d, nil
}

// capabilities returns the wire form of every def in registration order.
func (t *table[D]) capabilities() []Capability {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Capability, len(t.defs))
	for i, d := range t.defs {
		out[i], _ = d.entry()
	}
	return out
}

// names returns the registered names in registration order.
func (t *table[D]) names() []string {
	caps := t.capabilities()
	out := make([]string, len(caps))
	for i, c := range caps {
		out[i] = c.Name
	}
	return out
}

// checkDef panics on malformed registrations: they are programming
// errors, caught at init in any test run.
func checkDef(kind Kind, name string, ctor any, schema []Param, taken bool) {
	if name == "" {
		panic(fmt.Sprintf("registry: Register%s with empty name", kindTitle(kind)))
	}
	// ctor arrives as an interface wrapping a typed func value, so a nil
	// function is a non-nil interface — unwrap with reflect.
	if ctor == nil || reflect.ValueOf(ctor).IsNil() {
		panic(fmt.Sprintf("registry: %s %q registered with nil constructor", kind, name))
	}
	if taken {
		panic(fmt.Sprintf("registry: duplicate %s registration %q", kind, name))
	}
	seen := make(map[string]bool, len(schema))
	for _, sp := range schema {
		if sp.Name == "" {
			panic(fmt.Sprintf("registry: %s %q declares a parameter with no name", kind, name))
		}
		if seen[sp.Name] {
			panic(fmt.Sprintf("registry: %s %q declares parameter %q twice", kind, name, sp.Name))
		}
		seen[sp.Name] = true
		switch sp.Type {
		case TypeFloat, TypeInt, TypeUint, TypeBool, TypeString, TypeFloats:
		default:
			panic(fmt.Sprintf("registry: %s %q parameter %q has unknown type %q", kind, name, sp.Name, sp.Type))
		}
		if sp.Default != nil {
			if err := checkValue(kind, name, sp, sp.Default); err != nil {
				panic(fmt.Sprintf("registry: %s %q parameter %q default rejected by its own schema: %v",
					kind, name, sp.Name, err))
			}
		}
	}
}

func kindTitle(k Kind) string {
	switch k {
	case KindPolicy:
		return "Policy"
	case KindSource:
		return "Source"
	case KindPredictor:
		return "Predictor"
	case KindTaskModel:
		return "TaskModel"
	}
	return string(k)
}

// RegisterPolicy adds a scheduling policy to the registry. It panics on a
// duplicate or malformed registration.
func RegisterPolicy(def PolicyDef) { policies.register(def) }

// RegisterSource adds an energy-source kind to the registry. It panics on
// a duplicate or malformed registration.
func RegisterSource(def SourceDef) { sources.register(def) }

// RegisterPredictor adds a harvest predictor to the registry. It panics
// on a duplicate or malformed registration.
func RegisterPredictor(def PredictorDef) { predictors.register(def) }

// RegisterTaskModel adds a workload generator to the registry. It panics
// on a duplicate or malformed registration.
func RegisterTaskModel(def TaskModelDef) { taskModels.register(def) }

// Policy resolves a registered policy by name; the error is a typed
// *UnknownError listing the registered names.
func Policy(name string) (PolicyDef, error) { return policies.get(name) }

// Source resolves a registered energy-source kind by name.
func Source(name string) (SourceDef, error) { return sources.get(name) }

// Predictor resolves a registered predictor by name. The empty name is an
// alias for "ewma", the paper's default, preserving the leniency every
// pre-registry resolution path had.
func Predictor(name string) (PredictorDef, error) { return predictors.get(name) }

// TaskModel resolves a registered workload generator by name. The empty
// name is an alias for "periodic", the paper's workload.
func TaskModel(name string) (TaskModelDef, error) { return taskModels.get(name) }

// PolicyNames returns the registered policy names in registration order.
func PolicyNames() []string { return policies.names() }

// SourceNames returns the registered source kinds in registration order.
func SourceNames() []string { return sources.names() }

// PredictorNames returns the registered predictor names in registration
// order.
func PredictorNames() []string { return predictors.names() }

// TaskModelNames returns the registered task-model names in registration
// order.
func TaskModelNames() []string { return taskModels.names() }
