package experiment

// Sweep sharding: a sweep is embarrassingly parallel across replications
// and grid points, and every per-run result is deterministic, so a sweep
// can be split into disjoint shards, computed on different machines, and
// merged back into the exact result a single node would have produced.
//
// The byte-identity contract (DESIGN.md §13): a shard carries the *raw*
// per-cell material of its slice of the (replication × capacity × policy)
// grid — integer miss tallies for miss-rate sweeps, per-replication
// partial energy curves for remaining-energy sweeps — and MergeShards
// scatters that material back into the full grid before running the one
// aggregation fold (aggregateMissRate / aggregateRemaining). A single-node
// sweep is the one-shard plan through the same runner and merge
// (RunSweep). Identical inputs through identical float operations in
// identical order means the merged result is bit-for-bit the single-node
// result, regardless of how many shards there were or in what order they
// arrived. Float64 values survive the JSON hop exactly: encoding/json
// emits the shortest round-trip representation.

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"github.com/eadvfs/eadvfs/internal/metrics"
	"github.com/eadvfs/eadvfs/internal/obs"
)

// SweepKinds lists the sweep kinds that can be sharded and served:
// "missrate" (Figures 8–9) and "remaining" (Figures 6–7).
func SweepKinds() []string { return []string{"missrate", "remaining"} }

// ValidateSweepKind rejects unknown sweep kinds.
func ValidateSweepKind(kind string) error {
	kinds := SweepKinds()
	if slices.Contains(kinds, kind) {
		return nil
	}
	return fmt.Errorf("experiment: unknown sweep kind %q (want %s)", kind, strings.Join(kinds, " or "))
}

// Shard names one disjoint slice of a sweep's (replication × capacity)
// grid: replications [RepLo, RepHi) at capacity indices [CapLo, CapHi).
// Policies are never split — every shard compares all requested policies
// under its replications, preserving the paper's paired-comparison design
// (§5.2). Replication r derives its task set and source seed from the
// master seed alone (Replicate), so a shard computes exactly what a
// single-node sweep computes for the same cells.
type Shard struct {
	// Index is the shard's position in the plan; merge order is fixed by
	// it, independent of arrival order.
	Index int `json:"index"`
	// Count is the total number of shards in the plan.
	Count int `json:"count"`
	// [RepLo, RepHi) is the shard's replication (seed) window.
	RepLo int `json:"rep_lo"`
	RepHi int `json:"rep_hi"`
	// [CapLo, CapHi) indexes into Spec.Capacities. Remaining-energy shards
	// always span the full capacity sweep (the per-replication curve folds
	// all capacities together).
	CapLo int `json:"cap_lo"`
	CapHi int `json:"cap_hi"`
}

// Reps returns the number of replications in the shard's window.
func (sh Shard) Reps() int { return sh.RepHi - sh.RepLo }

// Caps returns the number of capacity points in the shard's window.
func (sh Shard) Caps() int { return sh.CapHi - sh.CapLo }

// Validate checks the shard against the spec it claims to slice. Workers
// run it on every sharded request (internal/service), so a coordinator
// bug — or a stale plan against a different spec — fails loudly instead
// of computing the wrong cells.
func (sh Shard) Validate(s Spec, kind string) error {
	if err := ValidateSweepKind(kind); err != nil {
		return err
	}
	switch {
	case sh.Count < 1:
		return fmt.Errorf("experiment: shard count %d < 1", sh.Count)
	case sh.Index < 0 || sh.Index >= sh.Count:
		return fmt.Errorf("experiment: shard index %d outside [0,%d)", sh.Index, sh.Count)
	case sh.RepLo < 0 || sh.RepHi > s.Replications || sh.RepLo >= sh.RepHi:
		return fmt.Errorf("experiment: shard replication window [%d,%d) outside [0,%d)",
			sh.RepLo, sh.RepHi, s.Replications)
	case sh.CapLo < 0 || sh.CapHi > len(s.Capacities) || sh.CapLo >= sh.CapHi:
		return fmt.Errorf("experiment: shard capacity window [%d,%d) outside [0,%d)",
			sh.CapLo, sh.CapHi, len(s.Capacities))
	}
	if kind == "remaining" && (sh.CapLo != 0 || sh.CapHi != len(s.Capacities)) {
		return fmt.Errorf("experiment: remaining-energy shard must span all capacities, got [%d,%d)",
			sh.CapLo, sh.CapHi)
	}
	return nil
}

// PlanShards splits a sweep into up to n disjoint shards. Replication
// (seed) windows are the primary axis; miss-rate sweeps additionally split
// the capacity grid when there are more requested shards than
// replications. The plan always covers the full grid exactly once, and
// fewer shards than requested are returned when the grid is too small to
// split further. Shard indices are assigned in row-major
// (replication-window, capacity-window) order.
func PlanShards(kind string, s Spec, n int) ([]Shard, error) {
	if err := ValidateSweepKind(kind); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		n = 1
	}
	repShards := n
	if repShards > s.Replications {
		repShards = s.Replications
	}
	capShards := 1
	if kind == "missrate" && repShards < n {
		capShards = n / repShards
		if capShards > len(s.Capacities) {
			capShards = len(s.Capacities)
		}
	}
	shards := make([]Shard, 0, repShards*capShards)
	for rw := 0; rw < repShards; rw++ {
		for cw := 0; cw < capShards; cw++ {
			shards = append(shards, Shard{
				RepLo: rw * s.Replications / repShards,
				RepHi: (rw + 1) * s.Replications / repShards,
				CapLo: cw * len(s.Capacities) / capShards,
				CapHi: (cw + 1) * len(s.Capacities) / capShards,
			})
		}
	}
	for i := range shards {
		shards[i].Index = i
		shards[i].Count = len(shards)
	}
	return shards, nil
}

// ShardResult is one shard's raw contribution to a sweep, shaped for exact
// merging rather than human consumption:
//
//   - missrate: Tallies holds the integer deadline-outcome counts of every
//     (replication, capacity, policy) cell of the shard, row-major with the
//     policy index minor — the grid layout of every sweep (runGrid),
//     offset to the shard's window. Integers merge exactly by placement.
//   - remaining: Curves[i][pi][k] is replication RepLo+i's per-policy
//     partial curve Σ_ci EC(t_k)/C_ci (repEnergyCurves) — the exact
//     floating-point values the merge folds in replication order.
type ShardResult struct {
	Kind    string              `json:"kind"`
	Shard   Shard               `json:"shard"`
	Tallies []metrics.MissStats `json:"tallies,omitempty"`
	Curves  [][][]float64       `json:"curves,omitempty"`
}

// RunShard executes one shard of a sweep (RunShardCtx without
// cancellation).
func RunShard(kind string, s Spec, policyNames []string, sh Shard) (*ShardResult, error) {
	return RunShardCtx(context.Background(), kind, s, policyNames, sh)
}

// RunShardCtx executes one shard of a sweep: the shard's replications are
// derived from the master seed exactly as every other shard derives them,
// runs fan out across Parallelism workers, and the raw per-cell material
// is returned for merging. This is what a worker node computes when a
// coordinator posts a sharded /v1/sweep request, and — on the whole-grid
// shard — what RunSweep computes for a single-node sweep.
func RunShardCtx(ctx context.Context, kind string, s Spec, policyNames []string, sh Shard) (*ShardResult, error) {
	out, agg, err := runShard(ctx, kind, s, policyNames, sh)
	agg.End()
	return out, err
}

// runShard is RunShardCtx with the aggregate phase span left open, so a
// single-node sweep can fold the whole grid inside it. The shard is the
// grid of its replication and capacity windows; for the remaining kind
// the simulate phase also folds each finished replication's curves.
func runShard(ctx context.Context, kind string, s Spec, policyNames []string, sh Shard) (*ShardResult, *obs.ActiveSpan, error) {
	if err := sh.Validate(s, kind); err != nil {
		return nil, nil, err
	}
	// Remaining-energy shards span every capacity (Shard.Validate), so
	// both kinds run the shard's capacity window.
	record := kind == "remaining"
	nr, ncw, np := sh.Reps(), sh.Caps(), len(policyNames)
	out := &ShardResult{Kind: kind, Shard: sh}
	var series []*metrics.Series
	var left []atomic.Int32
	if record {
		// A replication's block of series is folded into its curves by
		// the cell that finishes it last, then dropped, so the shard
		// holds finished curves plus the blocks in flight, not every
		// run's series.
		series = make([]*metrics.Series, nr*ncw*np)
		out.Curves = make([][][]float64, nr)
		left = make([]atomic.Int32, nr)
		for i := range left {
			left[i].Store(int32(ncw * np))
		}
	}
	g := grid{spec: s, policies: policyNames, lo: sh.RepLo, hi: sh.RepHi, points: ncw, shard: sh.Index}
	tallies, _, agg, err := runGrid(ctx, g, func(slot int, rep Replication, c int, pf PolicyFactory) (metrics.MissStats, error) {
		res, err := RunOne(ctx, s, rep, s.Capacities[sh.CapLo+c], pf, record)
		if err == nil && record {
			series[slot] = res.EnergySeries
			if i := slot / (ncw * np); left[i].Add(-1) == 0 {
				block := series[i*ncw*np : (i+1)*ncw*np]
				out.Curves[i] = repEnergyCurves(s, np, block)
				clear(block)
			}
		}
		return missOf(res, err)
	})
	if err != nil {
		return nil, nil, err
	}
	if !record {
		out.Tallies = tallies
	}
	return out, agg, nil
}

// RunSweep runs a whole sweep on this node: the one-shard plan, computed
// by the shard runner and merged by MergeShards, so a single-node result
// is by construction the fleet's merged result for the same request.
// Cancelling ctx stops queued replications at pickup, aborts running
// engines at their next poll, and returns a *CancelledError — a partial
// pooled result is statistically meaningless, so none is produced.
func RunSweep(ctx context.Context, kind string, s Spec, policyNames []string) (*MergedSweep, error) {
	whole := Shard{Count: 1, RepHi: s.Replications, CapHi: len(s.Capacities)}
	res, agg, err := runShard(ctx, kind, s, policyNames, whole)
	defer agg.End()
	if err != nil {
		return nil, err
	}
	return MergeShards(kind, s, policyNames, []*ShardResult{res}, false)
}

// MergedSweep is the output of MergeShards: exactly one of MissRate /
// Remaining is set, per Kind. MissingCells counts grid cells (replications
// for remaining-energy sweeps) no shard covered — zero for a complete
// merge, positive only when a partial merge was explicitly allowed.
type MergedSweep struct {
	Kind         string
	MissRate     *MissRateResult
	Remaining    *RemainingEnergyResult
	MissingCells int
}

// Result returns the set member for the sweep's kind — the value eactl
// and the service marshal as the sweep's result.
func (m *MergedSweep) Result() any {
	if m.Kind == "remaining" {
		return m.Remaining
	}
	return m.MissRate
}

// MergeShards reassembles shard results into the full sweep result.
// Results may arrive in any order and may contain nils (failed shards);
// placement is by each shard's own coordinates, so the merge is
// bit-reproducible regardless of arrival order. Overlapping coverage is
// always an error — two shards claiming the same cell means the plan was
// violated and the aggregate would double-count. Missing coverage is an
// error unless allowPartial is set, in which case the aggregation runs
// over the covered cells only (graceful degradation: a fleet that lost a
// shard still reports a statistically valid estimate over the completed
// cells, with MissingCells accounting for the loss).
//
// A complete merge is byte-identical (after JSON marshalling) to the
// single-node sweep for the same spec and policies: whatever the plan, the
// scattered raw material is the whole grid's slot array, and the
// single-node sweep is itself a merge of the one whole-grid shard.
func MergeShards(kind string, s Spec, policyNames []string, results []*ShardResult, allowPartial bool) (*MergedSweep, error) {
	if err := ValidateSweepKind(kind); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(policyNames) == 0 {
		return nil, fmt.Errorf("experiment: no policies requested")
	}
	nc, np := len(s.Capacities), len(policyNames)
	out := &MergedSweep{Kind: kind}
	switch kind {
	case "missrate":
		tallies := make([]metrics.MissStats, s.Replications*nc*np)
		covered := make([]bool, len(tallies))
		for _, res := range results {
			if res == nil {
				continue
			}
			if err := checkShardResult(res, s, kind); err != nil {
				return nil, err
			}
			ncw := res.Shard.Caps()
			if want := res.Shard.Reps() * ncw * np; len(res.Tallies) != want {
				return nil, fmt.Errorf("experiment: shard %d carries %d tallies, want %d",
					res.Shard.Index, len(res.Tallies), want)
			}
			for i := 0; i < res.Shard.Reps(); i++ {
				for c := 0; c < ncw; c++ {
					for pi := 0; pi < np; pi++ {
						g := ((res.Shard.RepLo+i)*nc+(res.Shard.CapLo+c))*np + pi
						if covered[g] {
							return nil, fmt.Errorf("experiment: shard %d overlaps cell (rep %d, cap %d, policy %d)",
								res.Shard.Index, res.Shard.RepLo+i, res.Shard.CapLo+c, pi)
						}
						covered[g] = true
						tallies[g] = res.Tallies[(i*ncw+c)*np+pi]
					}
				}
			}
		}
		for _, ok := range covered {
			if !ok {
				out.MissingCells++
			}
		}
		if out.MissingCells > 0 && !allowPartial {
			return nil, fmt.Errorf("experiment: merge covers %d/%d cells; %d missing",
				len(covered)-out.MissingCells, len(covered), out.MissingCells)
		}
		out.MissRate = aggregateMissRate(s, s.Capacities, policyNames, tallies, covered)
	case "remaining":
		curves := make([][][]float64, s.Replications)
		covered := make([]bool, s.Replications)
		for _, res := range results {
			if res == nil {
				continue
			}
			if err := checkShardResult(res, s, kind); err != nil {
				return nil, err
			}
			if len(res.Curves) != res.Shard.Reps() {
				return nil, fmt.Errorf("experiment: shard %d carries %d replication curves, want %d",
					res.Shard.Index, len(res.Curves), res.Shard.Reps())
			}
			for i, rc := range res.Curves {
				r := res.Shard.RepLo + i
				if covered[r] {
					return nil, fmt.Errorf("experiment: shard %d overlaps replication %d", res.Shard.Index, r)
				}
				if len(rc) != np {
					return nil, fmt.Errorf("experiment: shard %d replication %d carries %d policy curves, want %d",
						res.Shard.Index, r, len(rc), np)
				}
				n := int(s.Horizon) + 1
				for pi := range rc {
					if len(rc[pi]) != n {
						return nil, fmt.Errorf("experiment: shard %d replication %d policy %d curve has %d samples, want %d",
							res.Shard.Index, r, pi, len(rc[pi]), n)
					}
				}
				covered[r] = true
				curves[r] = rc
			}
		}
		for _, ok := range covered {
			if !ok {
				out.MissingCells++
			}
		}
		if out.MissingCells > 0 && !allowPartial {
			return nil, fmt.Errorf("experiment: merge covers %d/%d replications; %d missing",
				len(covered)-out.MissingCells, len(covered), out.MissingCells)
		}
		var err error
		out.Remaining, err = aggregateRemaining(s, policyNames, curves, covered)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkShardResult validates one shard result's identity against the merge
// it is joining.
func checkShardResult(res *ShardResult, s Spec, kind string) error {
	if res.Kind != kind {
		return fmt.Errorf("experiment: shard %d is a %q result, merging %q", res.Shard.Index, res.Kind, kind)
	}
	return res.Shard.Validate(s, kind)
}
