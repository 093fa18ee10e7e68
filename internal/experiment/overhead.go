package experiment

import (
	"context"
	"errors"
	"slices"

	"github.com/eadvfs/eadvfs/internal/metrics"
)

// OverheadResult reports the runtime cost side of each policy — the
// paper assumes DVFS switching is free (§5.1) and never counts
// preemptions or scheduler invocations; this experiment makes those
// visible so the assumption can be judged.
type OverheadResult struct {
	Spec     Spec
	Policies []string
	// Per policy, mean per-run counters over the replications.
	Switches    map[string]float64
	Preemptions map[string]float64
	Decisions   map[string]float64
	Events      map[string]float64
	// MissRate carries the effectiveness alongside the cost.
	MissRate map[string]float64
	// ResponseMean is the mean on-time job response time, averaged over
	// tasks and replications.
	ResponseMean map[string]float64
}

// Overhead measures scheduling overhead counters for the named policies
// at one storage capacity (the first in the spec's sweep).
func Overhead(s Spec, policyNames []string) (*OverheadResult, error) {
	type counters struct {
		switches, preempts, decisions, events float64
		miss                                  metrics.MissStats
		resp                                  metrics.Welford
	}
	ctx := context.Background()
	g := grid{spec: s, policies: policyNames, hi: s.Replications, points: 1}
	slots, _, agg, err := runGrid(ctx, g, func(_ int, rep Replication, _ int, pf PolicyFactory) (counters, error) {
		res, err := RunOne(ctx, s, rep, s.Capacities[0], pf, false)
		if err != nil {
			return counters{}, err
		}
		c := counters{
			switches:  float64(res.Switches),
			preempts:  float64(res.Preemptions),
			decisions: float64(res.Decisions),
			events:    float64(res.Events),
			miss:      res.Miss,
		}
		for _, ts := range res.PerTask {
			if ts.Finished > 0 {
				c.resp.Add(ts.ResponseMean)
			}
		}
		return c, nil
	})
	defer agg.End()
	if err != nil {
		return nil, err
	}

	out := &OverheadResult{
		Spec:         s,
		Policies:     append([]string(nil), policyNames...),
		Switches:     map[string]float64{},
		Preemptions:  map[string]float64{},
		Decisions:    map[string]float64{},
		Events:       map[string]float64{},
		MissRate:     map[string]float64{},
		ResponseMean: map[string]float64{},
	}
	np := len(policyNames)
	for pi, name := range policyNames {
		var sw, pr, de, ev, rsp metrics.Welford
		var miss metrics.MissStats
		for r := 0; r < s.Replications; r++ {
			c := slots[r*np+pi]
			sw.Add(c.switches)
			pr.Add(c.preempts)
			de.Add(c.decisions)
			ev.Add(c.events)
			if c.resp.N() > 0 {
				rsp.Add(c.resp.Mean())
			}
			miss.Add(c.miss)
		}
		out.Switches[name] = sw.Mean()
		out.Preemptions[name] = pr.Mean()
		out.Decisions[name] = de.Mean()
		out.Events[name] = ev.Mean()
		out.MissRate[name] = miss.Rate()
		out.ResponseMean[name] = rsp.Mean()
	}
	return out, nil
}

// ConvergenceResult reports how the pooled miss-rate estimate tightens as
// replications accumulate — the tool for choosing a replication count
// (the paper used 5 000; the harness defaults are chosen from this).
type ConvergenceResult struct {
	Policy string
	// Counts are the replication counts evaluated.
	Counts []int
	// Rate[i] and StdErr[i] are the pooled estimate and its standard
	// error using the first Counts[i] replications.
	Rate   []float64
	StdErr []float64
}

// Convergence evaluates the miss-rate estimate at increasing replication
// counts (each a prefix of the same replication stream, so the sequence
// is consistent).
func Convergence(s Spec, policy string, counts []int) (*ConvergenceResult, error) {
	if len(counts) == 0 || slices.Min(counts) <= 0 {
		return nil, errEmptyCounts
	}
	spec := s
	spec.Replications = slices.Max(counts)
	ctx := context.Background()
	g := grid{spec: spec, policies: []string{policy}, hi: spec.Replications, points: 1}
	tallies, _, agg, err := runGrid(ctx, g, func(_ int, rep Replication, _ int, pf PolicyFactory) (metrics.MissStats, error) {
		return missOf(RunOne(ctx, spec, rep, spec.Capacities[0], pf, false))
	})
	defer agg.End()
	if err != nil {
		return nil, err
	}

	out := &ConvergenceResult{Policy: policy, Counts: append([]int(nil), counts...)}
	for _, n := range counts {
		var w metrics.Welford
		var pooled metrics.MissStats
		for _, tally := range tallies[:n] {
			w.Add(tally.Rate())
			pooled.Add(tally)
		}
		out.Rate = append(out.Rate, pooled.Rate())
		out.StdErr = append(out.StdErr, w.StdErr())
	}
	return out, nil
}

var errEmptyCounts = errors.New("experiment: convergence counts must be positive and non-empty")
