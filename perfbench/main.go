// Command perfbench is the repository's benchmark: five named workloads
// that follow the simulator's real users, each run in its own process,
// each checking its outputs, each printing its metrics and, as the last
// line of standard output, one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"<name>":{"value":v,"unit":"u"},…}}
//
// BENCHMARK.json at the repository root names the workloads and metrics
// and fixes each end-to-end metric's regression bound; every performance
// claim in this repository names one metric and one workload from it.
//
// Workloads (why each one exists):
//
//   - engine: one sim.Run per op of the §5.1 WCET-exact workload, rotating
//     through 120 replications × {ea-dvfs, lsa} × capacities {200, 1000,
//     5000}, each op with a fresh store, predictor and policy. Isolates
//     the per-event hot path; the realized solar tables (~29 MB) exceed
//     the CPU's private caches.
//   - engine-variable: the same rotation under the stochastic-periodic task
//     model (bc_ratio 0.25) with ea-dvfs-reclaim/lsa-reclaim and the
//     default DPM sleep states, capacities {500, 1000, 5000}. Early
//     completions, reclaim decisions and sleep/wake events: a WCET-path
//     gain that costs this path shows here.
//   - sweep: experiment.MissRateSweep (4 replications, paper capacities,
//     U 0.4) then Table 1's warm bisection (2 replications, horizon 5000,
//     U {0.4, 0.8}), a new seed per op. The experiment layer: replication,
//     solar realization, the pooled batch runner, the 2-worker parallel
//     runner and the warm bisection.
//   - serve: an open loop of POST /v1/sim (horizon 2000) to an in-process
//     easerve at 60 requests/s from a seeded Poisson schedule over at
//     most 2 connections, cold cache, a 2 s warm-up excluded: 70% repeat a
//     pool of 64 configs (hits once warm), 15% are fresh (misses), 15% are
//     ?events=1 streams of pool configs. Latency is timed from each
//     request's due time. The service layer: decode, digest, single-flight
//     cache, admission and encode.
//   - fleet: fabric.Coordinator.RunSweep("missrate") of the sweep's
//     miss-rate spec over HTTPTransport to 2 in-process easerve workers
//     (Workers: 1); one op in four reruns the previous spec and should hit
//     the worker caches. The fabric layer: shard planning, ring placement,
//     transport, merge and cache affinity; fleet minus sweep on the
//     miss-rate half is the cost of distributing the sweep.
//
// End-to-end metrics, every workload: throughput_ops_s, latency_p50_ms,
// latency_p90_ms, setup_s (the median of nine fixture builds, each ending
// with an untimed warm-up op) and memory_mb (the median, over the window,
// of the memory the Go runtime holds from the OS). Timings are scaled to a
// reference host speed by a calibration loop (see calib.go); the
// human-readable output prints each raw value beside its scaled one, and
// the sample count of each. For serve, throughput is the achieved request
// rate against the 60/s offered, so it shows a backlog. Per-layer timings
// are raw host time; host.speed_ratio is the host speed they were taken at.
//
// Usage:
//
//	perfbench -workload <name> [-seed 1] [-seconds 20] [-trace 0|1] [-json out.json] [-cpuprofile cpu.out]
//	perfbench -layers [-seed 1]
//	perfbench -compare <parentDir> <changeDir> [-benchmark BENCHMARK.json]
//
// The program is built and run from the repository root by
// perfbench/run.sh, which passes its arguments through:
//
//	bash perfbench/run.sh --workload engine --seed 1 --seconds 20 --trace 0
//
// -trace 1 runs the same workload with every layer wrapped and prints the
// per-layer metrics instead of the end-to-end ones; traced and untraced
// ops alternate within the run, trace.overhead_ratio is their p50 ratio,
// and both must produce the same outputs (the printed digest covers the
// run's first ops and is the same for a traced and an untraced run of one
// seed). -layers prints unit costs from microbenchmarks of single engine
// layers, multiplied by a traced engine run's call counts, beside the
// measured op time. -compare reads two directories of -json records (for
// example ten rounds of every workload on a parent build and on a change)
// and judges each end-to-end metric of each workload as improved, within
// bound, regressed or unresolved, with the bounds from BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"
)

// Seed streams: every input of a run derives from -seed through one of
// these, so the same seed gives the same inputs.
const (
	streamOps     = 1 // per-op experiment seeds
	streamWarmup  = 2 // warm-up op seeds
	streamSample  = 3 // which ops the after-window checks re-run
	streamConfigs = 4 // serve's config pool and fresh configs
	streamArrival = 5 // serve's arrival schedule
)

// benchWorkload is one named benchmark workload.
type benchWorkload struct {
	name string
	run  func(options) (*report, error)
}

var workloads = []benchWorkload{
	{"engine", runEngine},
	{"engine-variable", runEngineVariable},
	{"sweep", runSweep},
	{"serve", runServe},
	{"fleet", runFleet},
}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]measure `json:"metrics"`
}

type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is what -json writes: the result with the run's identity, the
// input of -compare.
type record struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Trace    bool           `json:"trace"`
	Digest   string         `json:"digest"`
	Samples  map[string]int `json:"samples"`
	Result   result         `json:"result"`
}

// result selects the run's metrics: every end-to-end metric untraced,
// every per-layer metric traced. An end-to-end metric a workload failed to
// measure is an error; a per-layer metric of a layer the workload never
// reaches reads 0.
func (r *report) result(trace bool) (result, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := result{
		Correct:   r.correct(),
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]measure, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok && !trace {
			return out, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = measure{Value: v, Unit: d.Unit}
	}
	return out, nil
}

func main() {
	var (
		name       = flag.String("workload", "", "workload to run: engine, engine-variable, sweep, serve or fleet")
		seed       = flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds    = flag.Float64("seconds", 20, "length of the measured window")
		trace      = flag.Int("trace", 0, "1 wraps every layer and reports the per-layer metrics")
		jsonOut    = flag.String("json", "", "also write the run's record (the -compare input) to this file")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		layers     = flag.Bool("layers", false, "print unit costs of single engine layers against a traced engine run")
		compare    = flag.Bool("compare", false, "compare two directories of -json records: -compare parentDir changeDir")
		benchmark  = flag.String("benchmark", "BENCHMARK.json", "BENCHMARK.json to read bounds from (with -compare)")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("perfbench: -compare needs two directories, got %d arguments", flag.NArg())
		}
		if err := runCompare(os.Stdout, *benchmark, flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("perfbench: %v", err)
		}
		return
	case *layers:
		if err := runLayers(os.Stdout, *seed); err != nil {
			fatalf("perfbench: %v", err)
		}
		return
	}

	w, ok := findWorkload(*name)
	if !ok {
		fatalf("perfbench: unknown workload %q (want engine, engine-variable, sweep, serve or fleet)", *name)
	}
	if *trace != 0 && *trace != 1 {
		fatalf("perfbench: -trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		fatalf("perfbench: -seconds must be positive, got %v", *seconds)
	}
	if flag.NArg() > 0 {
		fatalf("perfbench: unexpected arguments %q", flag.Args())
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("perfbench: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("perfbench: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatalf("perfbench: %v", err)
			}
		}()
	}

	r, err := w.run(o)
	if err != nil {
		fatalf("perfbench: %s: %v", w.name, err)
	}
	res, err := r.result(o.trace)
	if err != nil {
		fatalf("perfbench: %s: %v", w.name, err)
	}
	printReport(w.name, o, r, res)
	if *jsonOut != "" {
		rec := record{Workload: w.name, Seed: o.seed, Trace: o.trace, Digest: r.digest, Samples: r.samples, Result: res}
		if err := writeJSON(*jsonOut, rec); err != nil {
			fatalf("perfbench: %v", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("perfbench: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		pprof.StopCPUProfile()
		os.Exit(1)
	}
}

// printReport writes the human-readable part of the output: every
// reported metric with its unit and sample count, then the checks.
func printReport(name string, o options, r *report, res result) {
	fmt.Printf("perfbench: workload %s, seed %d, %v window, trace %v\n", name, o.seed, o.seconds, o.trace)
	for _, k := range sortedKeys(res.Metrics) {
		m := res.Metrics[k]
		n, ok := r.samples[k]
		note := fmt.Sprintf("n=%d", n)
		if !ok {
			note = "not on this workload's path"
		}
		if raw, ok := r.raw[k]; ok {
			note += fmt.Sprintf(", scaled to the reference host speed (raw %.6g)", raw)
		}
		fmt.Printf("  %-34s %16.6g %-6s %s\n", k, m.Value, m.Unit, note)
	}
	for _, c := range r.checks {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
		}
		fmt.Printf("  check %s %s: %s\n", status, c.name, c.detail)
	}
	if n := r.samples["latency_p50_ms"]; n > 0 {
		fmt.Printf("  latency tail: p%g %.6g ms over %d ops\n", r.tailP, r.tailMs, n)
	}
	fmt.Printf("  digest %s over %d outputs; %d attempted, %d failed\n", r.digest, len(r.outputs), r.attempted, r.failed)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
