package task

import (
	"fmt"
	"math"

	"github.com/eadvfs/eadvfs/internal/rng"
)

// Execution-time distribution kinds (ExecSpec.Dist values).
const (
	// DistUniform draws the actual/WCET ratio from U[BCRatio, 1].
	DistUniform = "uniform"
	// DistNormal draws the ratio from a normal(Mean, StdDev) clipped into
	// [BCRatio, 1] — the truncated-normal model of frame-based stochastic
	// task studies (Berten/Chang/Kuo).
	DistNormal = "normal"
	// DistBimodal mixes a fast lobe U[BCRatio, FastRatio] (probability
	// FastProb) with a slow lobe U[FastRatio, 1] — the classic
	// cache-hit/cache-miss execution profile.
	DistBimodal = "bimodal"
	// DistTrace replays a recorded per-slot utilization trace: job seq k
	// uses ratio Slots[k mod len(Slots)], no randomness.
	DistTrace = "trace"
)

// ExecSpec describes how a task's jobs draw their *actual* execution time
// as a fraction of the declared WCET. The paper's model is actual = WCET
// (a nil ExecSpec); a non-nil spec makes jobs finish early, which is the
// raw material of online slack reclamation (Leung/Tsui). The ratio is
// always in [0, 1]: actual work never exceeds the budget (WCET overruns
// are a fault-injection concern, internal/fault).
//
// The spec is pure data — JSON-serializable on the wire (it rides inside
// a task descriptor) and digest-stable: a nil spec marshals to nothing,
// so every pre-existing WCET-exact document keeps its digest.Compact key.
type ExecSpec struct {
	Dist      string
	BCRatio   float64   `json:",omitempty"` // lower ratio bound in [0, 1]
	Mean      float64   `json:",omitempty"` // normal: mean ratio
	StdDev    float64   `json:",omitempty"` // normal: ratio standard deviation
	FastProb  float64   `json:",omitempty"` // bimodal: probability of the fast lobe
	FastRatio float64   `json:",omitempty"` // bimodal: boundary between the lobes
	Slots     []float64 `json:",omitempty"` // trace: per-slot ratios, wrapped by seq
}

// Validate reports whether the spec is self-consistent.
func (s *ExecSpec) Validate() error {
	bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
	if bad(s.BCRatio) || s.BCRatio < 0 || s.BCRatio > 1 {
		return fmt.Errorf("task: exec BCRatio %v outside [0, 1]", s.BCRatio)
	}
	switch s.Dist {
	case DistUniform:
	case DistNormal:
		if bad(s.Mean) || s.Mean < 0 || s.Mean > 1 {
			return fmt.Errorf("task: exec Mean %v outside [0, 1]", s.Mean)
		}
		if bad(s.StdDev) || s.StdDev < 0 {
			return fmt.Errorf("task: exec StdDev %v < 0", s.StdDev)
		}
	case DistBimodal:
		if bad(s.FastProb) || s.FastProb < 0 || s.FastProb > 1 {
			return fmt.Errorf("task: exec FastProb %v outside [0, 1]", s.FastProb)
		}
		if bad(s.FastRatio) || s.FastRatio < s.BCRatio || s.FastRatio > 1 {
			return fmt.Errorf("task: exec FastRatio %v outside [BCRatio %v, 1]", s.FastRatio, s.BCRatio)
		}
	case DistTrace:
		if len(s.Slots) == 0 {
			return fmt.Errorf("task: exec trace with no slots")
		}
		for i, v := range s.Slots {
			if bad(v) || v < 0 || v > 1 {
				return fmt.Errorf("task: exec trace slot %d: ratio %v outside [0, 1]", i, v)
			}
		}
	default:
		return fmt.Errorf("task: unknown exec distribution %q", s.Dist)
	}
	return nil
}

// Ratio draws one actual/WCET ratio in [0, 1]. The caller supplies a
// per-job RNG (derived per (task, seq) by the engine) so the draw is
// independent of event ordering; the trace distribution ignores it.
func (s *ExecSpec) Ratio(r *rng.RNG, seq int) float64 {
	switch s.Dist {
	case DistUniform:
		return r.Uniform(s.BCRatio, 1)
	case DistNormal:
		x := s.Mean + float64(s.StdDev*r.Normal())
		if x < s.BCRatio {
			x = s.BCRatio
		}
		if x > 1 {
			x = 1
		}
		return x
	case DistBimodal:
		if r.Uniform(0, 1) < s.FastProb {
			return r.Uniform(s.BCRatio, s.FastRatio)
		}
		return r.Uniform(s.FastRatio, 1)
	case DistTrace:
		return s.Slots[seq%len(s.Slots)]
	default:
		panic(fmt.Sprintf("task: unknown exec distribution %q", s.Dist))
	}
}

// UniformExec is the single best-case/worst-case ratio of the classic
// slack-reclamation model as a per-task spec: actual work uniform on
// [bcRatio·WCET, WCET]. The degenerate ratios 0 and 1 — and anything
// outside (0, 1) — mean the paper's WCET-exact model and return nil, so
// attaching the result never turns on stochastic execution by accident.
func UniformExec(bcRatio float64) *ExecSpec {
	if !(bcRatio > 0 && bcRatio < 1) {
		return nil
	}
	return &ExecSpec{Dist: DistUniform, BCRatio: bcRatio}
}
