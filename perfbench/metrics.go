package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef is one metric as BENCHMARK.json declares it. The lists below
// are the program's copy of that file; a test holds the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics every workload reports with tracing off: what
// a user of the simulator waits for or pays, measured on the host. The
// bounds are as tight as the hosts allow: on a shared 2-vCPU VM, over ten
// runs of different seeds, the timings' interquartile range stayed within
// a tenth of the median once scaled to the reference speed, except sweep's
// p90 (up to an eighth); memory's within a sixteenth.
var endToEnd = []metricDef{
	{Name: "throughput_ops_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "memory_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

// perLayer are the metrics a traced run reports. Every workload reports
// all of them; a layer a workload never reaches reads 0.
var perLayer = []metricDef{
	// Engine layers (engine, engine-variable): counts read from sim.Result.
	{Name: "sim.events_per_op", Unit: "count", Better: "lower"},
	{Name: "sim.decisions_per_op", Unit: "count", Better: "lower"},
	{Name: "sim.preemptions_per_op", Unit: "count", Better: "lower"},
	// Engine layers: wrappers around the public interfaces.
	{Name: "sched.decide.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "sched.decide.ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "energy.predict.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "energy.predict.ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "energy.observe.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "energy.observe.ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "energy.source.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "energy.source.ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "storage.flow.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "storage.flow.ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "storage.query.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "storage.query.ns_per_call", Unit: "ns", Better: "lower"},
	// Engine layers: derived. The four shares sum to 1.
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.self_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.self_share", Unit: "ratio", Better: "lower"},
	{Name: "sched.share", Unit: "ratio", Better: "lower"},
	{Name: "energy.share", Unit: "ratio", Better: "lower"},
	{Name: "storage.share", Unit: "ratio", Better: "lower"},
	// engine-variable only.
	{Name: "workload.reclaim.ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "sim.early_completions_per_op", Unit: "count", Better: "lower"},
	{Name: "cpu.wakeups_per_op", Unit: "count", Better: "lower"},
	{Name: "cpu.sleep_share", Unit: "ratio", Better: "higher"},
	// Experiment layer (sweep; the span-derived three also on fleet).
	{Name: "experiment.missrate.ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "experiment.mincap.ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "experiment.plan.ms", Unit: "ms", Better: "lower"},
	{Name: "experiment.simulate.ms", Unit: "ms", Better: "lower"},
	{Name: "experiment.aggregate.ms", Unit: "ms", Better: "lower"},
	// Service layer (serve; admission, engine and net also on fleet).
	{Name: "service.hit.server_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.miss.server_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.stream.server_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.sweep.server_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.shed_rate", Unit: "ratio", Better: "lower"},
	{Name: "service.admission_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.engine_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "net.client_overhead_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.lag_p99_ms", Unit: "ms", Better: "lower"},
	// Fabric layer (fleet).
	{Name: "fabric.attempt_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fabric.coordinator_self_ms", Unit: "ms", Better: "lower"},
	{Name: "fabric.attempts_per_shard", Unit: "count", Better: "lower"},
	{Name: "fabric.hedges_per_op", Unit: "count", Better: "lower"},
	{Name: "fabric.affinity_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "fabric.worker_balance", Unit: "ratio", Better: "higher"},
	// Process and Go runtime (all workloads), over the measured window.
	// host.speed_ratio is the host's speed against the reference the
	// end-to-end timings are scaled to: 0.5 means twice as slow.
	{Name: "host.speed_ratio", Unit: "ratio", Better: "higher"},
	{Name: "process.cpu_utilization", Unit: "ratio", Better: "higher"},
	{Name: "go.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "go.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "go.gc_cpu_fraction", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// loadBenchmark reads and strictly decodes a BENCHMARK.json file.
func loadBenchmark(path string) (*benchmarkFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// bounds returns the end-to-end metrics of b by name.
func (b *benchmarkFile) bounds() map[string]metricDef {
	m := make(map[string]metricDef, len(b.EndToEnd))
	for _, d := range b.EndToEnd {
		m[d.Name] = d
	}
	return m
}
