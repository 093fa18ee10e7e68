package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// options is one invocation of a workload.
type options struct {
	seed    uint64
	seconds time.Duration // measured window
	trace   bool          // per-layer run instead of the end-to-end one
}

// report collects what one workload run measured and checked.
type report struct {
	values    map[string]float64
	samples   map[string]int // sample count behind each value
	attempted int
	failed    int
	checks    []check
	digest    string           // SHA-256 over outputs, in key order
	outputs   map[int][32]byte // output hash per op (see digester)
	tailP     float64          // highest latency percentile with ten samples beyond it
	tailMs    float64
	raw       map[string]float64 // unscaled value of each host-speed-scaled metric
}

type check struct {
	name   string
	ok     bool
	detail string
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}, raw: map[string]float64{}}
}

func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

// setScaled reports a metric scaled to the reference host speed, noting
// its raw value.
func (r *report) setScaled(name string, scaled, raw float64, n int) {
	r.set(name, scaled, n)
	r.raw[name] = raw
}

// setP50 reports the median of a per-layer sample, when there is one.
func (r *report) setP50(name string, xs []float64) {
	if len(xs) > 0 {
		r.set(name, percentile(xs, 50), len(xs))
	}
}

// timed is one timed op.
type timed struct {
	start time.Time
	d     time.Duration
}

// setLatency reports the end-to-end latency percentiles of a sample in ms,
// scaled to the reference host speed, and notes the sample's highest
// percentile with ten samples beyond it.
func (r *report) setLatency(scaled, raw []float64) {
	for _, p := range []float64{50, 90} {
		r.setScaled(fmt.Sprintf("latency_p%g_ms", p), percentile(scaled, p), percentile(raw, p), len(scaled))
	}
	r.tailP = tailPercentile(len(scaled))
	r.tailMs = percentile(scaled, r.tailP)
}

// setClosedLoop reports the end-to-end metrics of a closed loop's ops:
// throughput is ops completed per second of op time.
func (r *report) setClosedLoop(cal *calibrator, ops []timed) {
	scaled, raw := cal.latencies(ops)
	r.setScaled("throughput_ops_s", 1000/mean(scaled), 1000/mean(raw), len(ops))
	r.setLatency(scaled, raw)
}

// correct reports whether every check passed and no op failed.
func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return r.failed == 0 && r.attempted > 0
}

// digester keeps the output hashes of a run's first ops, keyed by op (or,
// for serve, by pool config), so two runs of the same seed — traced or
// not — can be compared by one string, or op by op where they overlap.
type digester struct {
	limit int
	sums  map[int][32]byte
}

func newDigester(limit int) *digester { return &digester{limit: limit, sums: map[int][32]byte{}} }

func (d *digester) add(i int, b []byte) {
	if i < d.limit {
		d.sums[i] = sha256.Sum256(b)
	}
}

func (d *digester) finish(r *report) {
	keys := make([]int, 0, len(d.sums))
	for k := range d.sums {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	h := sha256.New()
	for _, k := range keys {
		sum := d.sums[k]
		h.Write(sum[:])
	}
	r.digest = hex.EncodeToString(h.Sum(nil))
	r.outputs = d.sums
}

// setupRepeats is how many times a workload builds its fixture in one run;
// setup_s is the median, so one slow build does not decide it. Each build
// sits between setupSamples calibration samples.
const (
	setupRepeats = 9
	setupSamples = 3
)

// setup builds a fixture setupRepeats times, keeps the last one, releases
// the others, and reports the median build time as setup_s. A build ends
// with the workload's untimed warm-up op: set-up is everything before the
// first timed op.
func setup[F any](r *report, cal *calibrator, build func(i int) (F, error), release func(F)) (F, error) {
	var keep F
	builds := make([]timed, 0, setupRepeats)
	cal.warm()
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		for k := 0; k < setupSamples; k++ {
			cal.sample()
		}
		start := time.Now()
		f, err := build(i)
		if err != nil {
			return keep, fmt.Errorf("setup: %w", err)
		}
		builds = append(builds, timed{start, time.Since(start)})
		if i > 0 && release != nil {
			release(keep)
		}
		keep = f
	}
	for k := 0; k < setupSamples; k++ {
		cal.sample()
	}
	scaled, raw := cal.latencies(builds)
	r.setScaled("setup_s", median(scaled)/1000, median(raw)/1000, len(builds))
	runtime.GC()
	return keep, nil
}

// meter samples process-wide counters around the measured window.
type meter struct {
	start   time.Time
	cpu     time.Duration
	runtime []metrics.Sample
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func startMeter() *meter {
	return &meter{start: time.Now(), cpu: processCPU(), runtime: readRuntime()}
}

// finish records the process and Go runtime metrics of the window for ops
// completed operations, with the memory held over the window from the
// calibration samples.
func (m *meter) finish(r *report, cal *calibrator, ops int) {
	end := time.Now()
	mem, speed, n := cal.window(m.start, end)
	r.set("memory_mb", mem, n)
	r.set("host.speed_ratio", speed, n)
	wall := end.Sub(m.start)
	cpu := processCPU() - m.cpu
	rt := readRuntime()
	delta := func(i int) float64 {
		switch rt[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(rt[i].Value.Uint64() - m.runtime[i].Value.Uint64())
		case metrics.KindFloat64:
			return rt[i].Value.Float64() - m.runtime[i].Value.Float64()
		}
		return 0
	}
	r.set("process.cpu_utilization", cpu.Seconds()/(wall.Seconds()*float64(runtime.GOMAXPROCS(0))), 1)
	if ops > 0 {
		r.set("go.alloc_bytes_per_op", delta(0)/float64(ops), ops)
		r.set("go.allocs_per_op", delta(1)/float64(ops), ops)
	}
	if total := delta(3); total > 0 {
		r.set("go.gc_cpu_fraction", delta(2)/total, 1)
	}
}

// processCPU returns the user+system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heldMemory returns the memory the Go runtime holds from the OS, in
// bytes: everything it mapped minus the heap it released. It tracks the
// process's resident set without a platform-specific read.
func heldMemory() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64() - s[1].Value.Uint64())
}

// closedLoop calls op with 0, 1, 2, … until the window has elapsed and
// returns the number of calls, taking calibration samples between ops. op
// does its own timing, so the benchmark's checking between ops never
// counts as op time.
func closedLoop(window time.Duration, cal *calibrator, op func(i int)) int {
	deadline := time.Now().Add(window)
	n := 0
	for ; time.Now().Before(deadline); n++ {
		cal.tick()
		op(n)
	}
	cal.sample()
	return n
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
