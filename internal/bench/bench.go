// Package bench defines the repository's canonical experiment-level
// workloads: each figure/table regeneration (or a raw engine or service
// run) at bench sizing, with the shape metrics it reports.
//
// Each Case runs its workload n times and returns the shape metrics of
// the last execution — miss rates, normalized remaining energy, capacity
// ratios. A perf change that also moves a shape metric is a correctness
// regression, not an optimization. BENCH_baseline.json (repo root)
// records the reference metrics and steady-state allocations; TestBaseline
// checks them in every `go test ./...` and `-update` regenerates them
// (DESIGN.md §9). BenchmarkCases times the same cases; timing claims
// belong to perfbench.
package bench

import (
	"context"
	"fmt"

	"github.com/eadvfs/eadvfs/internal/core"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/experiment"
	"github.com/eadvfs/eadvfs/internal/sim"
	"github.com/eadvfs/eadvfs/internal/storage"
)

// Case is one benchmark workload.
type Case struct {
	Name string
	// Run executes the workload n times and returns the shape metrics of
	// the last execution.
	Run func(n int) (map[string]float64, error)
}

// spec returns the experiment spec sized for benchmarking (the historical
// bench_test.go sizing — changing it invalidates BENCH_baseline.json).
func spec() experiment.Spec {
	s := experiment.DefaultSpec()
	s.Replications = 2
	return s
}

// Cases returns every benchmark workload, in reporting order.
func Cases() []Case {
	return []Case{
		{Name: "Fig5EnergySource", Run: runFig5},
		{Name: "Fig6RemainingEnergyLowU", Run: remaining(0.4)},
		{Name: "Fig7RemainingEnergyHighU", Run: remaining(0.8)},
		{Name: "Fig8MissRateLowU", Run: missRate(0.4)},
		{Name: "Fig9MissRateHighU", Run: missRate(0.8)},
		{Name: "Table1MinCapacityRatio", Run: runTable1},
		{Name: "Table1WarmBisection", Run: runTable1Warm},
		{Name: "RunManyBatch", Run: runRunManyBatch},
		{Name: "Engine", Run: runEngine},
		{Name: "EngineStochastic", Run: runEngineStochastic},
		{Name: "EngineDPM", Run: runEngineDPM},
		{Name: "ServiceRequestMiss", Run: runServiceMiss},
		{Name: "ServiceRequestHit", Run: runServiceHit},
	}
}

func runFig5(n int) (map[string]float64, error) {
	var mean float64
	for i := 0; i < n; i++ {
		s := experiment.SourceTrace(uint64(i+1), 10000)
		mean = s.Mean()
	}
	return map[string]float64{"power/mean": mean}, nil
}

func remaining(u float64) func(int) (map[string]float64, error) {
	return func(n int) (map[string]float64, error) {
		s := spec()
		s.Utilization = u
		var ea, lsa float64
		for i := 0; i < n; i++ {
			res, err := experiment.RemainingEnergy(context.Background(), s, []string{"lsa", "ea-dvfs"})
			if err != nil {
				return nil, err
			}
			ea = res.Curves["ea-dvfs"].Mean()
			lsa = res.Curves["lsa"].Mean()
		}
		return map[string]float64{"energy/ea-dvfs": ea, "energy/lsa": lsa}, nil
	}
}

func missRate(u float64) func(int) (map[string]float64, error) {
	return func(n int) (map[string]float64, error) {
		s := spec()
		s.Replications = 3
		s.Utilization = u
		s.Capacities = []float64{50, 200, 1000, 5000}
		var res *experiment.MissRateResult
		for i := 0; i < n; i++ {
			var err error
			res, err = experiment.MissRateSweep(s, []string{"lsa", "ea-dvfs"})
			if err != nil {
				return nil, err
			}
		}
		last := len(res.Capacities) - 1
		return map[string]float64{
			"missrate/lsa-small": res.Rates["lsa"][0],
			"missrate/ea-small":  res.Rates["ea-dvfs"][0],
			"missrate/lsa-large": res.Rates["lsa"][last],
			"missrate/ea-large":  res.Rates["ea-dvfs"][last],
		}, nil
	}
}

func runTable1(n int) (map[string]float64, error) {
	s := spec()
	s.Horizon = 5000 // bisection is ~20 runs per (rep, policy, U)
	utils := []float64{0.2, 0.4, 0.6, 0.8}
	var res *experiment.MinCapacityResult
	for i := 0; i < n; i++ {
		var err error
		res, err = experiment.MinCapacity(s, utils, []string{"lsa", "ea-dvfs"})
		if err != nil {
			return nil, err
		}
	}
	out := make(map[string]float64, len(utils))
	for i, u := range utils {
		out[fmt.Sprintf("ratio/u%g", u)] = res.Ratio[i]
	}
	return out, nil
}

// runTable1Warm isolates one warm-start capacity search (one replication,
// U=0.6, both Table 1 policies on a shared MinCapacitySearcher) from the
// full Table 1 sweep, so the baseline can watch the amortized bisection path —
// runner reuse, probe memo, first-miss early exit — without the sweep's
// parallel-runner noise. The cmin metrics pin the searched capacities; the
// warm-vs-cold equality itself is pinned by the experiment tests.
func runTable1Warm(n int) (map[string]float64, error) {
	s := spec()
	s.Horizon = 5000
	s.Utilization = 0.6
	factories, err := s.Policies([]string{"lsa", "ea-dvfs"})
	if err != nil {
		return nil, err
	}
	rep, err := experiment.Replicate(s, 0)
	if err != nil {
		return nil, err
	}
	rep.PrepareSource(s.Horizon)
	var cLSA, cEA float64
	for i := 0; i < n; i++ {
		search, err := experiment.NewMinCapacitySearcher(s, rep, factories)
		if err != nil {
			return nil, err
		}
		var ok bool
		if cLSA, ok, err = search.Search(0, experiment.MinCapLo, experiment.MinCapMaxHi, experiment.MinCapTol); err != nil {
			return nil, err
		} else if !ok {
			return nil, fmt.Errorf("bench: lsa search found no zero-miss capacity")
		}
		if cEA, ok, err = search.Search(1, experiment.MinCapLo, experiment.MinCapMaxHi, experiment.MinCapTol); err != nil {
			return nil, err
		} else if !ok {
			return nil, fmt.Errorf("bench: ea-dvfs search found no zero-miss capacity")
		}
	}
	return map[string]float64{
		"cmin/lsa":     cLSA,
		"cmin/ea-dvfs": cEA,
		"cmin/ratio":   cLSA / cEA,
	}, nil
}

// runRunManyBatch measures the batched grid entry point: one replication's
// full (capacity × policy) grid through experiment.RunBatch, i.e. the
// amortized Runner executing every cell on one arena and one solar fork.
func runRunManyBatch(n int) (map[string]float64, error) {
	s := spec()
	factories, err := s.Policies([]string{"lsa", "ea-dvfs"})
	if err != nil {
		return nil, err
	}
	rep, err := experiment.Replicate(s, 0)
	if err != nil {
		return nil, err
	}
	rep.PrepareSource(s.Horizon)
	out := make(map[string]float64, 3)
	for i := 0; i < n; i++ {
		grid, err := experiment.RunBatch(nil, s, rep, s.Capacities, factories, false)
		if err != nil {
			return nil, err
		}
		last := len(s.Capacities) - 1
		out["missrate/lsa-small"] = grid[0][0].Miss.Rate()
		out["missrate/ea-small"] = grid[0][1].Miss.Rate()
		out["missrate/lsa-large"] = grid[last][0].Miss.Rate()
		out["missrate/ea-large"] = grid[last][1].Miss.Rate()
	}
	return out, nil
}

// runEngineStochastic measures the stochastic hot path — the per-job
// actual-work draw at arrival plus the reclaiming decorator's EWMA
// observation and speculative min-level scan at every decision — on the
// raw engine: the §5.1 workload under the stochastic-periodic task model
// scheduled by ea-dvfs-reclaim. The slack/* shape metrics pin the draw
// stream and the reclamation outcomes bit-for-bit; Engine (above) is the
// WCET-exact control whose allocs/op must not move when this subsystem
// is disabled.
func runEngineStochastic(n int) (map[string]float64, error) {
	s := spec()
	s.TaskModel = "stochastic-periodic"
	s.TaskParams = map[string]any{"bc_ratio": 0.25}
	pf, err := s.PolicyFor("ea-dvfs-reclaim")
	if err != nil {
		return nil, err
	}
	rep, err := experiment.Replicate(s, 0)
	if err != nil {
		return nil, err
	}
	rep.PrepareSource(s.Horizon)
	var res *sim.Result
	for i := 0; i < n; i++ {
		cfg := &sim.Config{
			Horizon:   s.Horizon,
			Tasks:     rep.Tasks,
			Source:    rep.Source(),
			Predictor: energy.NewEWMA(0.2),
			Store:     storage.NewIdeal(500),
			CPU:       s.Processor(),
			Policy:    pf(),
			ExecSeed:  42,
		}
		if res, err = sim.Run(cfg); err != nil {
			return nil, err
		}
	}
	return map[string]float64{
		"events/run":      float64(res.Events),
		"slack/drawn":     float64(res.Slack.DrawnJobs),
		"slack/early":     float64(res.Slack.EarlyCompletions),
		"slack/reclaimed": res.Slack.ReclaimedWork,
		"missrate":        res.Miss.Rate(),
	}, nil
}

// runEngineDPM measures the sleep-state path — break-even gating,
// enter/exit transition accounting and latency-aware wake scheduling —
// on the raw engine: the WCET-exact §5.1 workload on the "default" DPM
// preset under EA-DVFS. The dpm/* shape metrics pin the sleep schedule.
func runEngineDPM(n int) (map[string]float64, error) {
	s := spec()
	s.Sleep = "default"
	rep, err := experiment.Replicate(s, 0)
	if err != nil {
		return nil, err
	}
	rep.PrepareSource(s.Horizon)
	var res *sim.Result
	for i := 0; i < n; i++ {
		cfg := &sim.Config{
			Horizon:   s.Horizon,
			Tasks:     rep.Tasks,
			Source:    rep.Source(),
			Predictor: energy.NewEWMA(0.2),
			Store:     storage.NewIdeal(500),
			CPU:       s.Processor(),
			Policy:    core.NewEADVFS(),
		}
		if res, err = sim.Run(cfg); err != nil {
			return nil, err
		}
	}
	return map[string]float64{
		"events/run":   float64(res.Events),
		"dpm/sleep":    res.SleepTime,
		"dpm/wakeups":  float64(res.Wakeups),
		"dpm/overhead": res.DPMOverhead,
		"missrate":     res.Miss.Rate(),
	}, nil
}

func runEngine(n int) (map[string]float64, error) {
	s := spec()
	rep, err := experiment.Replicate(s, 0)
	if err != nil {
		return nil, err
	}
	rep.PrepareSource(s.Horizon)
	var events uint64
	for i := 0; i < n; i++ {
		cfg := &sim.Config{
			Horizon:   s.Horizon,
			Tasks:     rep.Tasks,
			Source:    rep.Source(),
			Predictor: energy.NewEWMA(0.2),
			Store:     storage.NewIdeal(500),
			CPU:       s.Processor(),
			Policy:    core.NewEADVFS(),
		}
		res, err := sim.Run(cfg)
		if err != nil {
			return nil, err
		}
		events = res.Events
	}
	return map[string]float64{"events/run": float64(events)}, nil
}
