// Package verify is the differential-verification harness: it compiles
// one run document (internal/runspec) for the optimized engine
// (internal/sim) and for the deliberately naive reference engine
// (internal/refimpl), runs both, and demands bit-identical outputs —
// decision audits, engine event streams, and every exported Result metric.
//
// The comparison is exact (math.Float64bits, not a tolerance) because the
// optimized layers were written as accumulation-order-preserving rewrites
// of the naive formulations; DESIGN.md §11 states that contract and its
// boundary. A divergence therefore always means a real bug in one of the
// engines, never float reassociation noise — which is what makes the
// harness usable as a CI gate (`go test ./internal/verify -quick`) and as
// the backing store of cmd/eaverify's minimizing reproducer.
package verify

import (
	"errors"
	"fmt"
	"math"
	"reflect"

	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/refimpl"
	"github.com/eadvfs/eadvfs/internal/runspec"
	"github.com/eadvfs/eadvfs/internal/sim"
)

// Spec is one differential test case: a run document plus the harness's
// own members. RandomSpec draws these from a seed; cmd/eaverify reads and
// writes them as JSON, with the document's members inline.
type Spec struct {
	// Seed is the generator seed this spec was drawn from (bookkeeping
	// only — the spec is self-contained).
	Seed uint64 `json:"seed"`

	runspec.Spec

	// InjectBias, when non-zero, adds a constant bias to every energy
	// prediction the *optimized* side makes for query windows starting at
	// or after InjectAfter. It exists to fault-inject an artificial
	// divergence so the harness and minimizer can be tested end to end —
	// a spec with a bias is divergent by construction.
	InjectBias  float64 `json:"inject_bias,omitempty"`
	InjectAfter float64 `json:"inject_after,omitempty"`
}

// biasPredictor perturbs an inner predictor — the divergence fault
// injection behind Spec.InjectBias.
type biasPredictor struct {
	inner energy.Predictor
	bias  float64
	after float64
}

func (b *biasPredictor) Observe(t, p float64) { b.inner.Observe(t, p) }

func (b *biasPredictor) PredictEnergy(t1, t2 float64) float64 {
	e := b.inner.PredictEnergy(t1, t2)
	if t1 >= b.after {
		e += b.bias
	}
	return e
}

// Pair compiles the two configurations — optimized and reference — from
// the spec, each with fresh stateful components, so the pair starts
// bit-equal and neither run can contaminate the other.
func (s *Spec) Pair() (opt, ref *sim.Config, err error) {
	if opt, err = s.config(false); err != nil {
		return nil, nil, err
	}
	if ref, err = s.config(true); err != nil {
		return nil, nil, err
	}
	return opt, ref, nil
}

// config compiles one side, recording the stored-energy series so it is
// compared too, with the injected bias on the optimized side.
func (s *Spec) config(isRef bool) (*sim.Config, error) {
	cfg, err := s.Compile(isRef)
	if err != nil {
		return nil, err
	}
	cfg.RecordEnergy = true
	if !isRef && s.InjectBias != 0 {
		cfg.Predictor = &biasPredictor{inner: cfg.Predictor, bias: s.InjectBias, after: s.InjectAfter}
	}
	return cfg, nil
}

// Divergence describes a differential failure: the first (up to maxDiffs)
// field paths whose bits differ, plus both sides' full observability
// records for side-by-side dumping.
type Divergence struct {
	Spec  *Spec
	Diffs []string // "Result.BusyTime: 3.5 != 3.4999999999999996" style

	OptErr, RefErr error
	Opt, Ref       *sim.Result
	OptRec, RefRec *obs.Recorder
}

// Diverged reports whether the pair disagreed anywhere.
func (d *Divergence) Diverged() bool {
	return d != nil && len(d.Diffs) > 0
}

const maxDiffs = 24

// Check runs both engines on the spec and bit-compares everything:
// run errors (by message, and an *EventBudgetError field by field),
// decision audits, engine event streams, and the exported Result fields.
// The optimized engine runs twice — traced, and untraced with no probe —
// because it takes shortcuts only when no probe watches (quiet unit
// boundaries), and each run must match the reference. It returns nil when
// the runs are bit-identical, and a populated Divergence otherwise. A
// setup error (invalid spec) is returned as err.
func Check(s *Spec) (*Divergence, error) {
	opt, ref, err := s.Pair()
	if err != nil {
		return nil, err
	}
	// The untraced run (no probe, no checker) is the configuration every
	// benchmark, cache key and digest uses.
	untraced, err := s.config(false)
	if err != nil {
		return nil, err
	}
	optRec, refRec := obs.NewRecorder(), obs.NewRecorder()
	opt.Probe, ref.Probe = optRec, refRec

	optRes, optErr := sim.Run(opt)
	refRes, refErr := refimpl.Run(ref)
	untracedRes, untracedErr := sim.Run(untraced)

	d := &Divergence{
		Spec:   s,
		OptErr: optErr, RefErr: refErr,
		Opt: optRes, Ref: refRes,
		OptRec: optRec, RefRec: refRec,
	}
	if diffOutcome("", optRes, optErr, refRes, refErr, &d.Diffs) {
		bitDiff("Decisions", reflect.ValueOf(optRec.Decisions()), reflect.ValueOf(refRec.Decisions()), &d.Diffs)
		bitDiff("Events", reflect.ValueOf(optRec.Events()), reflect.ValueOf(refRec.Events()), &d.Diffs)
	}
	diffOutcome("Untraced.", untracedRes, untracedErr, refRes, refErr, &d.Diffs)
	if !d.Diverged() {
		return nil, nil
	}
	return d, nil
}

// diffOutcome bit-compares one optimized run's outcome with the
// reference's: the error's presence and message, an *EventBudgetError's
// every field, then the Result. It reports false when the outcomes differ
// in kind (error against none, different message, result presence), so
// nothing further is worth comparing.
func diffOutcome(path string, a *sim.Result, aErr error, b *sim.Result, bErr error, out *[]string) bool {
	if (aErr == nil) != (bErr == nil) {
		*out = append(*out, fmt.Sprintf("%serror: %v != %v", path, aErr, bErr))
		return false
	}
	if aErr != nil && aErr.Error() != bErr.Error() {
		*out = append(*out, fmt.Sprintf("%serror: %q != %q", path, aErr, bErr))
		return false
	}
	var ab, bb *sim.EventBudgetError
	if errors.As(aErr, &ab) != errors.As(bErr, &bb) {
		*out = append(*out, fmt.Sprintf("%serror type: %T != %T", path, aErr, bErr))
		return false
	}
	if ab != nil {
		bitDiff(path+"EventBudgetError", reflect.ValueOf(*ab), reflect.ValueOf(*bb), out)
	}
	if (a == nil) != (b == nil) {
		*out = append(*out, fmt.Sprintf("%sresult presence: %v != %v", path, a != nil, b != nil))
		return false
	}
	if a != nil {
		bitDiff(path+"Result", reflect.ValueOf(*a), reflect.ValueOf(*b), out)
	}
	return true
}

// bitDiff walks two values of identical type and records every path where
// they differ — floats compared by math.Float64bits (so +Inf, -0 and NaN
// payloads all count), everything else by language equality. Unexported
// fields are skipped: they are implementation detail the reference engine
// legitimately does not reproduce (e.g. the Welford accumulator inside
// sim.TaskStats, whose exported projections ResponseMean/ResponseMax are
// compared instead).
func bitDiff(path string, a, b reflect.Value, out *[]string) {
	if len(*out) >= maxDiffs {
		return
	}
	if a.Type() != b.Type() {
		*out = append(*out, fmt.Sprintf("%s: type %v != %v", path, a.Type(), b.Type()))
		return
	}
	switch a.Kind() {
	case reflect.Float64, reflect.Float32:
		af, bf := a.Float(), b.Float()
		if math.Float64bits(af) != math.Float64bits(bf) {
			*out = append(*out, fmt.Sprintf("%s: %v != %v (bits %016x != %016x)",
				path, af, bf, math.Float64bits(af), math.Float64bits(bf)))
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			*out = append(*out, fmt.Sprintf("%s: %d != %d", path, a.Int(), b.Int()))
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if a.Uint() != b.Uint() {
			*out = append(*out, fmt.Sprintf("%s: %d != %d", path, a.Uint(), b.Uint()))
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			*out = append(*out, fmt.Sprintf("%s: %v != %v", path, a.Bool(), b.Bool()))
		}
	case reflect.String:
		if a.String() != b.String() {
			*out = append(*out, fmt.Sprintf("%s: %q != %q", path, a.String(), b.String()))
		}
	case reflect.Ptr:
		if a.IsNil() != b.IsNil() {
			*out = append(*out, fmt.Sprintf("%s: nil-ness %v != %v", path, a.IsNil(), b.IsNil()))
			return
		}
		if !a.IsNil() {
			bitDiff(path, a.Elem(), b.Elem(), out)
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			*out = append(*out, fmt.Sprintf("%s: len %d != %d", path, a.Len(), b.Len()))
			return
		}
		for i := 0; i < a.Len() && len(*out) < maxDiffs; i++ {
			bitDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i), out)
		}
	case reflect.Struct:
		t := a.Type()
		for i := 0; i < t.NumField() && len(*out) < maxDiffs; i++ {
			f := t.Field(i)
			if f.PkgPath != "" { // unexported
				continue
			}
			bitDiff(path+"."+f.Name, a.Field(i), b.Field(i), out)
		}
	case reflect.Interface:
		if a.IsNil() != b.IsNil() {
			*out = append(*out, fmt.Sprintf("%s: nil-ness %v != %v", path, a.IsNil(), b.IsNil()))
			return
		}
		if !a.IsNil() {
			bitDiff(path, a.Elem(), b.Elem(), out)
		}
	default:
		// Maps, chans, funcs do not occur in compared types; flag loudly
		// if a future Result field introduces one.
		*out = append(*out, fmt.Sprintf("%s: uncomparable kind %v", path, a.Kind()))
	}
}
