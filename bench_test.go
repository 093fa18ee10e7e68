// Ablation benchmarks for the design choices DESIGN.md calls out, plus
// micro-benchmarks of the decision path and the public facade. The
// per-figure/table workloads (see DESIGN.md §3 for the index) live in
// internal/bench: `go test ./internal/bench -bench .` times them, and its
// TestBaseline pins their shape metrics against BENCH_baseline.json.
// Replication counts are bench-sized; cmd/eaexp runs the same experiments
// at any fidelity.
//
// Reported custom metrics carry the experiment outcome so that a bench
// run doubles as a check on the *shape* of each result: miss rates
// (missrate/*).
package eadvfs_test

import (
	"fmt"
	"testing"

	"github.com/eadvfs/eadvfs"
	"github.com/eadvfs/eadvfs/internal/core"
	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/experiment"
	"github.com/eadvfs/eadvfs/internal/sched"
	"github.com/eadvfs/eadvfs/internal/sim"
	"github.com/eadvfs/eadvfs/internal/storage"
	"github.com/eadvfs/eadvfs/internal/task"
)

// benchSpec returns the experiment spec sized for benchmarking.
func benchSpec() experiment.Spec {
	s := experiment.DefaultSpec()
	s.Replications = 2
	return s
}

// BenchmarkAblationS2Lock compares the paper's locked-s2 EA-DVFS with the
// stateless-recompute variant (DESIGN.md §2.1): the lock is what preserves
// the §4.3 guarantee.
func BenchmarkAblationS2Lock(b *testing.B) {
	spec := benchSpec()
	spec.Replications = 3
	spec.Utilization = 0.6
	spec.Capacities = []float64{200, 1000}
	var res *experiment.MissRateResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.MissRateSweep(spec, []string{"ea-dvfs", "ea-dvfs-dynamic"})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Rates["ea-dvfs"][0], "missrate/locked")
	b.ReportMetric(res.Rates["ea-dvfs-dynamic"][0], "missrate/dynamic")
}

// BenchmarkAblationGreedyStretch quantifies the §4.3 guard: greedy
// stretching without the s2 switch versus full EA-DVFS.
func BenchmarkAblationGreedyStretch(b *testing.B) {
	spec := benchSpec()
	spec.Replications = 3
	spec.Utilization = 0.6
	spec.Capacities = []float64{200, 1000}
	var res *experiment.MissRateResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.MissRateSweep(spec, []string{"ea-dvfs", "greedy-stretch"})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Rates["ea-dvfs"][0], "missrate/ea-dvfs")
	b.ReportMetric(res.Rates["greedy-stretch"][0], "missrate/greedy")
}

// BenchmarkAblationPredictors isolates the prediction error's share of
// EA-DVFS's miss rate: perfect oracle vs the default EWMA tracker vs the
// pessimist that budgets stored energy only.
func BenchmarkAblationPredictors(b *testing.B) {
	for _, pred := range []string{"oracle", "ewma", "zero"} {
		b.Run(pred, func(b *testing.B) {
			spec := benchSpec()
			spec.Replications = 3
			spec.Predictor = pred
			spec.Capacities = []float64{300}
			var res *experiment.MissRateResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = experiment.MissRateSweep(spec, []string{"ea-dvfs"})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Rates["ea-dvfs"][0], "missrate")
		})
	}
}

// BenchmarkComputePlan measures the per-decision cost of the EA-DVFS
// arithmetic (eqs. 5–9), the hot path of the scheduler.
func BenchmarkComputePlan(b *testing.B) {
	proc := cpu.XScale()
	for i := 0; i < b.N; i++ {
		_ = core.ComputePlan(proc, 123.4, float64(i%100), float64(i%100)+50, 3.7)
	}
}

// BenchmarkPolicyDecide measures a full scheduling decision through the
// policy interface.
func BenchmarkPolicyDecide(b *testing.B) {
	for _, mk := range []func() sched.Policy{
		func() sched.Policy { return sched.LSA{} },
		func() sched.Policy { return core.NewEADVFS() },
	} {
		p := mk()
		b.Run(p.Name(), func(b *testing.B) {
			src := energy.NewConstant(2)
			q := newBenchQueue()
			ctx := &sched.Context{
				Now:       10,
				Queue:     q,
				Stored:    50,
				Capacity:  200,
				CPU:       cpu.XScale(),
				Predictor: energy.NewOracle(src),
			}
			for i := 0; i < b.N; i++ {
				_ = p.Decide(ctx)
			}
		})
	}
}

// BenchmarkAblationStaticDVFS measures the static (energy-oblivious) DVFS
// baseline against EA-DVFS at the crossover utilizations: static wins at
// low U (pure DVFS suffices), EA-DVFS wins at high U (energy awareness
// matters). See EXPERIMENTS.md ablations.
func BenchmarkAblationStaticDVFS(b *testing.B) {
	for _, u := range []float64{0.4, 0.9} {
		b.Run(benchName("u", u), func(b *testing.B) {
			spec := benchSpec()
			spec.Replications = 3
			spec.Utilization = u
			spec.Capacities = []float64{300}
			var res *experiment.MissRateResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = experiment.MissRateSweep(spec, []string{"static-dvfs", "ea-dvfs"})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Rates["static-dvfs"][0], "missrate/static")
			b.ReportMetric(res.Rates["ea-dvfs"][0], "missrate/ea-dvfs")
		})
	}
}

// BenchmarkAblationDVFSLevels sweeps the number of operating points: how
// much granularity does EA-DVFS need before returns diminish?
func BenchmarkAblationDVFSLevels(b *testing.B) {
	spec := benchSpec()
	spec.Replications = 3
	var res *experiment.SensitivityResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.LevelCountSweep(spec, []float64{1, 2, 5, 10}, []string{"ea-dvfs"})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Rates["ea-dvfs"][0], "missrate/1-level")
	b.ReportMetric(res.Rates["ea-dvfs"][1], "missrate/2-levels")
	b.ReportMetric(res.Rates["ea-dvfs"][2], "missrate/5-levels")
	b.ReportMetric(res.Rates["ea-dvfs"][3], "missrate/10-levels")
}

// BenchmarkAblationSlackReclamation compares worst-case workloads with
// workloads whose actual execution time is drawn from [0.5·WCET, WCET]:
// early completions feed the lazy policies extra energy headroom.
func BenchmarkAblationSlackReclamation(b *testing.B) {
	for _, ratio := range []float64{0, 0.5} {
		b.Run(benchName("bcwc", ratio), func(b *testing.B) {
			spec := benchSpec()
			var missed, released int
			for i := 0; i < b.N; i++ {
				missed, released = 0, 0
				for r := 0; r < 3; r++ {
					rep, err := experiment.Replicate(spec, r)
					if err != nil {
						b.Fatal(err)
					}
					tasks := append([]task.Task(nil), rep.Tasks...)
					for i := range tasks {
						tasks[i].Exec = task.UniformExec(ratio)
					}
					src := energy.NewSolarModel(rep.SourceSeed)
					res, err := sim.Run(&sim.Config{
						Horizon:   spec.Horizon,
						Tasks:     tasks,
						Source:    src,
						Predictor: energy.NewEWMA(0.2),
						Store:     storage.NewIdeal(300),
						CPU:       spec.Processor(),
						Policy:    core.NewEADVFS(),
					})
					if err != nil {
						b.Fatal(err)
					}
					missed += res.Miss.Missed
					released += res.Miss.Released
				}
			}
			b.ReportMetric(float64(missed)/float64(released), "missrate")
		})
	}
}

func benchName(k string, v float64) string {
	return fmt.Sprintf("%s=%g", k, v)
}

func newBenchQueue() *task.ReadyQueue {
	q := task.NewReadyQueue()
	q.Push(task.NewJob(0, 0, 8, 40, 3))
	q.Push(task.NewJob(1, 0, 9, 25, 2))
	q.Push(task.NewJob(2, 0, 10, 60, 5))
	return q
}

// BenchmarkFacadeRun measures an end-to-end run through the public API.
func BenchmarkFacadeRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eadvfs.Run(eadvfs.Config{Horizon: 2000, Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}
