package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/eadvfs/eadvfs/internal/experiment"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/rng"
)

// Sweep workload shape: Figures 8–9's miss-rate sweep at a small
// replication count, then Table 1's warm bisection at two utilizations.
const (
	sweepMissReps   = 4
	sweepMinReps    = 2
	sweepMinHorizon = 5000
	sweepDigestOps  = 16
	sweepSamples    = 2 // ops re-run after the window with tracing flipped
	fleetShards     = 4 // 2 workers × the fabric's default 2 shards per worker
)

// minCapLo is where the sweep's Table 1 bisections start: 200 J, the
// paper's smallest store. experiment.MinCapacity starts at 1 J, where
// EA-DVFS sometimes never finishes a run: at U 0.8 about one replication
// in ten thousand idles to recharge until a start time that converges on a
// fixed point, and the run ends in the event-budget watchdog. The lowest
// minimum found in 1600 searches of this spec was 411 J.
const minCapLo = 200

var (
	sweepPolicies = []string{"lsa", "ea-dvfs"}
	sweepUtils    = []float64{0.4, 0.8}
)

// missRateSpec is the miss-rate sweep of one op; fleet distributes the
// same spec, so the two workloads compute identical results per seed.
func missRateSpec(seed uint64) experiment.Spec {
	s := experiment.DefaultSpec()
	s.Replications = sweepMissReps
	s.Seed = seed
	return s
}

func minCapSpec(seed uint64) experiment.Spec {
	s := experiment.DefaultSpec()
	s.Replications = sweepMinReps
	s.Horizon = sweepMinHorizon
	s.Seed = seed
	return s
}

// opSeed is the experiment seed of op i: fresh for every op, fixed by the
// run seed. Warm-up ops draw from their own stream.
func opSeed(run uint64, stream uint64, i int) uint64 {
	return rng.New(run).Child(stream).Child(uint64(i)).Uint64()
}

// opHash is the output hash of a completed op.
type opHash struct {
	i   int
	sum [32]byte
}

// sweepResult is one op's output, as JSON.
type sweepResult struct {
	miss, mincap []byte
	missDur      time.Duration
	minDur       time.Duration
}

// sweepOp runs one op: the miss-rate sweep and the minimum-capacity
// bisections, timed separately. spans, when non-nil, collects the
// miss-rate sweep's phase spans.
func sweepOp(seed uint64, spans obs.SpanSink) (sweepResult, error) {
	var out sweepResult
	spec := missRateSpec(seed)
	spec.Spans = spans
	start := time.Now()
	mr, err := experiment.MissRateSweep(spec, sweepPolicies)
	out.missDur = time.Since(start)
	if err != nil {
		return out, err
	}
	start = time.Now()
	mc, err := minCapacities(minCapSpec(seed))
	out.minDur = time.Since(start)
	if err != nil {
		return out, err
	}
	if out.miss, err = json.Marshal(mr); err != nil {
		return out, err
	}
	out.mincap, err = json.Marshal(mc)
	return out, err
}

// minCap is one replication's Table 1 result: each policy's minimum
// zero-miss capacity and whether the search found one.
type minCap struct {
	Capacity [2]float64 `json:"capacity"`
	Found    [2]bool    `json:"found"`
}

// minCapacities runs Table 1's search the way experiment.MinCapacity
// does — one warm experiment.MinCapacitySearcher per replication and
// utilization, both policies bisected on it, the jobs spread over
// experiment.Parallelism workers — but from minCapLo.
func minCapacities(base experiment.Spec) ([]minCap, error) {
	type job struct {
		u   float64
		rep int
	}
	var jobs []job
	for _, u := range sweepUtils {
		for r := 0; r < base.Replications; r++ {
			jobs = append(jobs, job{u, r})
		}
	}
	out := make([]minCap, len(jobs))
	errs := make([]error, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(experiment.Parallelism, len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = minCapacity(base, jobs[i].u, jobs[i].rep)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out, errors.Join(errs...)
}

func minCapacity(base experiment.Spec, u float64, r int) (minCap, error) {
	var m minCap
	s := base
	s.Utilization = u
	if err := s.Validate(); err != nil {
		return m, err
	}
	factories, err := s.Policies(sweepPolicies)
	if err != nil {
		return m, err
	}
	rep, err := experiment.Replicate(s, r)
	if err != nil {
		return m, err
	}
	rep.PrepareSource(s.Horizon)
	search, err := experiment.NewMinCapacitySearcher(s, rep, factories)
	if err != nil {
		return m, err
	}
	for pi := range sweepPolicies {
		if m.Capacity[pi], m.Found[pi], err = search.Search(pi, minCapLo, experiment.MinCapMaxHi, experiment.MinCapTol); err != nil {
			return m, fmt.Errorf("U %v replication %d %s: %w", u, r, sweepPolicies[pi], err)
		}
	}
	return m, nil
}

func runSweep(o options) (*report, error) {
	r := newReport()
	cal := &calibrator{}
	if _, err := setup(r, cal, func(k int) (struct{}, error) {
		_, err := sweepOp(opSeed(o.seed, streamWarmup, k), nil)
		return struct{}{}, err
	}, nil); err != nil {
		return nil, err
	}

	dig := newDigester(sweepDigestOps)
	var done []opHash
	var ops []timed
	var traced, untraced, missMs, minMs []float64
	phases := map[string]float64{}
	tracedOps := 0
	m := startMeter()
	n := closedLoop(o.seconds, cal, func(i int) {
		var rec *obs.Recorder
		if o.trace && i%2 == 1 {
			rec = obs.NewRecorder()
		}
		r.attempted++
		var sink obs.SpanSink
		if rec != nil {
			sink = rec
		}
		start := time.Now()
		res, err := sweepOp(opSeed(o.seed, streamOps, i), sink)
		if err != nil {
			r.failed++
			r.check("sweep.op", false, "op %d: %v", i, err)
			return
		}
		out := append(res.miss, res.mincap...)
		dig.add(i, out)
		done = append(done, opHash{i: i, sum: sha256.Sum256(out)})
		ops = append(ops, timed{start, res.missDur + res.minDur})
		l := ms(res.missDur + res.minDur)
		missMs = append(missMs, ms(res.missDur))
		minMs = append(minMs, ms(res.minDur))
		if rec == nil {
			untraced = append(untraced, l)
			return
		}
		traced = append(traced, l)
		tracedOps++
		for _, sp := range rec.Spans() {
			if sp.Service == "experiment" {
				phases[sp.Name] += ms(sp.Duration)
			}
		}
	})
	m.finish(r, cal, n)
	dig.finish(r)

	// Determinism and trace transparency: sampled ops re-run with tracing
	// flipped must reproduce their bytes; the first sample is also merged
	// from locally run shards, the byte-identity contract fleet relies on.
	pick := rng.New(o.seed).Child(streamSample)
	for k := 0; k < sweepSamples && len(done) > 0; k++ {
		op := done[pick.Intn(len(done))]
		ok, detail := sweepRerunAgrees(o, op.i, op.sum, k == 0)
		r.check("sweep.rerun", ok, "op %d: %s", op.i, detail)
	}

	cal.check(r)
	r.setClosedLoop(cal, ops)
	if len(ops) > 0 {
		r.set("experiment.missrate.ms_per_op", mean(missMs), len(missMs))
		r.set("experiment.mincap.ms_per_op", mean(minMs), len(minMs))
	}
	if tracedOps > 0 && len(untraced) > 0 {
		r.set("experiment.plan.ms", phases["plan"]/float64(tracedOps), tracedOps)
		r.set("experiment.simulate.ms", phases["simulate"]/float64(tracedOps), tracedOps)
		r.set("experiment.aggregate.ms", phases["aggregate"]/float64(tracedOps), tracedOps)
		r.set("trace.overhead_ratio", median(traced)/median(untraced), len(traced))
	}
	return r, nil
}

// sweepRerunAgrees re-runs op i with the opposite tracing state and
// compares its output with the op's own; when sharded is set, the
// miss-rate half is also assembled from local shards.
func sweepRerunAgrees(o options, i int, want [32]byte, sharded bool) (bool, string) {
	seed := opSeed(o.seed, streamOps, i)
	var sink obs.SpanSink
	if !(o.trace && i%2 == 1) {
		sink = obs.NewRecorder()
	}
	again, err := sweepOp(seed, sink)
	if err != nil {
		return false, err.Error()
	}
	if sha256.Sum256(append(again.miss, again.mincap...)) != want {
		return false, "traced and untraced outputs differ"
	}
	if !sharded {
		return true, "traced and untraced outputs identical"
	}
	merged, err := localShardedMissRate(missRateSpec(seed))
	if err != nil {
		return false, err.Error()
	}
	if !bytes.Equal(merged, again.miss) {
		return false, "shard merge differs from the single-node sweep"
	}
	return true, "traced, untraced and shard-merged outputs identical"
}

// localShardedMissRate computes a miss-rate sweep the way the fleet does —
// plan, run every shard, merge — without the network.
func localShardedMissRate(s experiment.Spec) ([]byte, error) {
	shards, err := experiment.PlanShards("missrate", s, fleetShards)
	if err != nil {
		return nil, err
	}
	results := make([]*experiment.ShardResult, len(shards))
	for i, sh := range shards {
		if results[i], err = experiment.RunShard("missrate", s, sweepPolicies, sh); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	merged, err := experiment.MergeShards("missrate", s, sweepPolicies, results, false)
	if err != nil {
		return nil, err
	}
	return json.Marshal(merged.MissRate)
}
