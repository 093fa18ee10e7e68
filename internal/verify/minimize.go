package verify

import (
	"fmt"
	"io"
	"math"
	"reflect"

	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/runspec"
	"github.com/eadvfs/eadvfs/internal/task"
)

// Minimize greedily shrinks a diverging spec while preserving the
// divergence, and returns the smallest spec found together with its
// Divergence. The reduction passes are applied to a fixpoint in a
// deterministic order, so the same input always minimizes to the same
// repro. A spec that does not diverge is returned unchanged with a nil
// Divergence.
//
// The passes only ever simplify — drop a task, shorten the horizon, turn
// off jitter/faults, flatten the source, enlarge the store toward the
// trivial regime — so the minimized spec is a strict sub-problem of the
// original, never a different bug.
func Minimize(s *Spec) (*Spec, *Divergence, error) {
	d, err := Check(s)
	if err != nil {
		return s, nil, err
	}
	if !d.Diverged() {
		return s, nil, nil
	}
	cur := cloneSpec(s)
	best := d
	for {
		improved := false
		for _, cand := range shrinkCandidates(cur) {
			cd, err := Check(cand)
			if err != nil {
				continue // an invalid shrink is simply not taken
			}
			if cd.Diverged() {
				cur, best = cand, cd
				improved = true
				break // restart the pass list from the smaller spec
			}
		}
		if !improved {
			return cur, best, nil
		}
	}
}

func cloneSpec(s *Spec) *Spec {
	c := *s
	c.Tasks = append([]task.Task(nil), s.Tasks...)
	c.Source.Samples = append([]float64(nil), s.Source.Samples...)
	return &c
}

// shrinkCandidates enumerates the one-step reductions of s, most
// aggressive first. Each candidate is an independent clone.
func shrinkCandidates(s *Spec) []*Spec {
	var out []*Spec
	add := func(mutate func(*Spec) bool) {
		c := cloneSpec(s)
		if mutate(c) {
			out = append(out, c)
		}
	}
	// Drop one task at a time (keep at least one).
	for i := range s.Tasks {
		i := i
		add(func(c *Spec) bool {
			if len(c.Tasks) <= 1 {
				return false
			}
			c.Tasks = append(c.Tasks[:i], c.Tasks[i+1:]...)
			return true
		})
	}
	add(func(c *Spec) bool { // halve the horizon
		if c.Horizon <= 10 {
			return false
		}
		c.Horizon = math.Ceil(c.Horizon / 2)
		return true
	})
	add(func(c *Spec) bool { // kill execution-time jitter
		if c.BCWCRatio == 0 {
			return false
		}
		c.BCWCRatio = 0
		return true
	})
	add(func(c *Spec) bool { // kill fault injection
		if c.FaultIntensity == 0 {
			return false
		}
		c.FaultIntensity = 0
		return true
	})
	add(func(c *Spec) bool { // flatten the source to its mean
		if c.Source.Kind == "constant" {
			return false
		}
		mean := sourceMean(c.Source)
		if mean <= 0 {
			mean = 1
		}
		c.Source = runspec.SourceSpec{Kind: "constant", Power: mean}
		return true
	})
	add(func(c *Spec) bool { // simplest predictor
		if c.Predictor == "zero" {
			return false
		}
		c.Predictor = "zero"
		c.Alpha = 0
		return true
	})
	add(func(c *Spec) bool { // halve the capacity, keeping the store's fill
		if c.Capacity < 1 {
			return false
		}
		half := math.Floor(c.Capacity / 2)
		c.Initial = math.Min(c.Initial*(half/c.Capacity), half)
		c.Capacity = half
		return true
	})
	add(func(c *Spec) bool { // full initial charge is the simplest state
		if c.Initial == c.Capacity {
			return false
		}
		c.Initial = c.Capacity
		return true
	})
	return out
}

// SideBySide writes the two decision-audit logs next to each other,
// marking the first diverging record with ">>>". Matching prefixes are
// elided down to a few lines of context, so the dump stays readable even
// for long runs.
func SideBySide(w io.Writer, d *Divergence) {
	if d == nil {
		fmt.Fprintln(w, "no divergence")
		return
	}
	opt, ref := d.OptRec.Decisions(), d.RefRec.Decisions()
	first := firstDecisionDiff(opt, ref)
	fmt.Fprintf(w, "decision audits: optimized=%d reference=%d, first divergence at #%d\n",
		len(opt), len(ref), first)
	const context = 3
	lo := first - context
	if lo < 0 {
		lo = 0
	}
	hi := first + context + 1
	n := len(opt)
	if len(ref) > n {
		n = len(ref)
	}
	if hi > n {
		hi = n
	}
	if lo > 0 {
		fmt.Fprintf(w, "  … %d matching records elided …\n", lo)
	}
	for i := lo; i < hi; i++ {
		mark := "   "
		if i == first {
			mark = ">>>"
		}
		fmt.Fprintf(w, "%s #%d\n", mark, i)
		fmt.Fprintf(w, "    opt: %s\n", fmtDecision(opt, i))
		fmt.Fprintf(w, "    ref: %s\n", fmtDecision(ref, i))
	}
	if hi < n {
		fmt.Fprintf(w, "  … %d more records …\n", n-hi)
	}
	fmt.Fprintln(w, "field diffs:")
	for _, diff := range d.Diffs {
		fmt.Fprintf(w, "  %s\n", diff)
	}
}

// firstDecisionDiff returns the index of the first differing decision
// record, or the shorter length when one log is a prefix of the other, or
// len when the logs are identical (the divergence is elsewhere — events or
// Result).
func firstDecisionDiff(a, b []obs.DecisionRecord) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		var diffs []string
		bitDiff("d", reflect.ValueOf(a[i]), reflect.ValueOf(b[i]), &diffs)
		if len(diffs) > 0 {
			return i
		}
	}
	return n
}

func fmtDecision(recs []obs.DecisionRecord, i int) string {
	if i >= len(recs) {
		return "(missing)"
	}
	r := recs[i]
	return fmt.Sprintf("t=%.9g %s task=%d seq=%d stored=%.17g avail=%.17g s1=%.17g s2=%.17g level=%d until=%.9g reason=%s",
		r.Time, r.Policy, r.TaskID, r.Seq, r.Stored, r.Available, r.S1, r.S2, r.Level, r.Until, r.Reason)
}
