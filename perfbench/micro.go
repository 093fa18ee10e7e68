package main

import (
	"fmt"
	"io"
	"math"
	"testing"
	"time"

	"github.com/eadvfs/eadvfs/internal/core"
	"github.com/eadvfs/eadvfs/internal/des"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/sched"
	"github.com/eadvfs/eadvfs/internal/sim"
	"github.com/eadvfs/eadvfs/internal/storage"
	"github.com/eadvfs/eadvfs/internal/task"
)

// unitCost is the cost of one call of a single engine layer, measured in
// isolation.
type unitCost struct {
	name string
	ns   float64
}

// nsPerOp runs a microbenchmark and returns its mean ns per iteration.
func nsPerOp(f func(b *testing.B)) float64 {
	r := testing.Benchmark(f)
	if r.N == 0 {
		return math.NaN()
	}
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// sink keeps microbenchmark results alive.
var sink float64

// unitCosts measures one call of each engine layer on warm, engine-sized
// state: a solar trace realized over the paper's horizon, a ready queue
// and an event heap holding a handful of jobs, as the §5.1 task sets do.
func unitCosts() map[string]float64 {
	const horizon = 10000
	src := energy.NewSolarModel(1)
	src.PowerAt(horizon)
	proc := wcetVariant(1).spec.Processor()
	jobs := make([]*task.Job, 6)
	for i := range jobs {
		jobs[i] = task.NewJob(i, 0, 0, float64(10*(i+1)), 2)
	}
	out := map[string]float64{}

	out["des.step"] = nsPerOp(func(b *testing.B) {
		k := des.NewKernel()
		fn := func(float64, any) {}
		for i := 1; i <= 5; i++ {
			k.AtArg(1e18+float64(i), 3, "resident", fn, nil)
		}
		for i := 0; i < b.N; i++ {
			k.AtArg(float64(i), 3, "deadline", fn, nil)
			k.Step()
		}
	})
	out["task.queue"] = nsPerOp(func(b *testing.B) {
		q := task.NewReadyQueue()
		for _, j := range jobs[1:] {
			q.Push(j)
		}
		for i := 0; i < b.N; i++ {
			q.Push(jobs[0])
			q.Remove(jobs[0])
		}
	})
	out["energy.source"] = nsPerOp(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += src.PowerAt(float64(i % horizon))
		}
	})
	out["energy.cumulative"] = nsPerOp(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += src.CumulativeEnergy(float64(i%horizon) + 0.5)
		}
	})
	ewma := energy.NewEWMA(0.2)
	ewma.Observe(0, 3)
	out["energy.predict"] = nsPerOp(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += ewma.PredictEnergy(float64(i%horizon), float64(i%horizon)+50)
		}
	})
	out["energy.observe"] = nsPerOp(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ewma.Observe(float64(i), float64(i&7))
		}
	})
	out["storage.flow"] = nsPerOp(func(b *testing.B) {
		s := storage.NewIdeal(1000)
		for i := 0; i < b.N; i++ {
			d, _ := s.Flow(float64(3+2*(i&1)), 4, 0.5) // alternately charging and draining
			sink += d
		}
	})
	out["storage.query"] = nsPerOp(func(b *testing.B) {
		s := storage.NewIdeal(1000)
		for i := 0; i < b.N; i++ {
			sink += s.TimeToEmpty(3, 4)
		}
	})
	out["core.ComputePlan"] = nsPerOp(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += core.ComputePlan(proc, 300, 10, 60, 5).S2
		}
	})
	out["sched.decide"] = nsPerOp(func(b *testing.B) {
		q := task.NewReadyQueue()
		for _, j := range jobs[:3] {
			q.Push(j)
		}
		ctx := sched.Context{Now: 1, Queue: q, Stored: 300, Capacity: 1000, CPU: proc, Predictor: energy.Zero{}}
		p := core.NewEADVFS()
		for i := 0; i < b.N; i++ {
			sink += float64(p.Decide(&ctx).Level)
		}
	})
	return out
}

// layerRow pairs a microbenchmarked unit with the per-op count it is
// multiplied by and the wrapper-measured layer it corresponds to.
type layerRow struct {
	unit  string
	count string
	layer layer // -1: inside sim.self in the wrapper split
}

var layerRows = []layerRow{
	{"des.step", "released jobs (one deadline event each)", -1},
	{"task.queue", "released jobs (one push and one remove each)", -1},
	{"sched.decide", "sched.decide calls", layerDecide},
	{"energy.predict", "energy.predict calls", layerPredict},
	{"energy.observe", "energy.observe calls", layerObserve},
	{"energy.source", "energy.source calls", layerSource},
	{"storage.flow", "storage.flow calls", layerFlow},
	{"storage.query", "storage.query calls", layerQuery},
}

// layerRotations is how many rotations' worth of traced ops -layers runs,
// and as many untraced, in alternating blocks.
const layerRotations = 2

// runLayers prints, for the engine workload, each layer's unit cost times
// its per-op call count beside the wrapper-measured self time and the
// measured untraced op time, with the part no row explains.
func runLayers(w io.Writer, seed uint64) error {
	f, err := newEngineFixture(wcetVariant(seed))
	if err != nil {
		return err
	}
	tr := newTracer()
	var split opSplit
	var released float64
	rotation := len(f.cells)
	for i := 0; i < 2*layerRotations*rotation; i++ {
		traced := tracedOp(i, rotation)
		var t *tracer
		if traced {
			t = tr
		}
		start := time.Now()
		res, err := sim.Run(f.config(i, t))
		lat := time.Since(start)
		if err != nil {
			return err
		}
		op := engineOp{timed: timed{start, lat}, traced: traced, events: res.Events}
		if traced {
			split.traced.add(op)
			released += float64(res.Miss.Released)
		} else {
			split.untraced.add(op)
		}
	}
	ls := split.layers(tr, nestedCost())
	releasedPerOp := released / float64(split.traced.ops)
	units := unitCosts()

	fmt.Fprintf(w, "perfbench -layers: engine workload, seed %d, %d traced and %d untraced ops\n",
		seed, split.traced.ops, split.untraced.ops)
	fmt.Fprintf(w, "%-16s %9s %11s %14s %14s  %s\n", "layer", "unit ns", "calls/op", "unit×calls µs", "wrapper µs", "count")
	var explained float64
	for _, row := range layerRows {
		calls := releasedPerOp
		wrapper := "(in sim.self)"
		if row.layer >= 0 {
			calls = ls.callsPerOp[row.layer]
			wrapper = fmt.Sprintf("%14.1f", ls.selfNs(row.layer)/1e3)
		}
		est := units[row.unit] * calls
		explained += est
		fmt.Fprintf(w, "%-16s %9.2f %11.0f %14.1f %14s  %s\n", row.unit, units[row.unit], calls, est/1e3, wrapper, row.count)
	}
	fmt.Fprintf(w, "%-16s %9.2f %11s %14s %14s  %s\n", "core.ComputePlan", units["core.ComputePlan"], "", "", "", "part of sched.decide")
	fmt.Fprintf(w, "%-16s %9.2f %11s %14s %14s  %s\n", "energy.cumulative", units["energy.cumulative"], "", "", "", "O(1) prefix query; the oracle predictor's path")
	fmt.Fprintf(w, "%-16s %9s %11s %14.1f %14.1f  %s\n", "residual", "", "", (ls.untracedNs-explained)/1e3, ls.simSelfNs/1e3,
		"untraced op time no row explains (wrapper: sim.self)")
	fmt.Fprintf(w, "%-16s %9s %11.0f %14.1f %14.1f  %s\n", "op (untraced)", "", ls.events, ls.untracedNs/1e3, ls.untracedNs/1e3, "measured; calls/op column is events/op")
	fmt.Fprintf(w, "%-16s %9s %11s %14s %14.1f  %s\n", "instrumentation", "", "", "", (ls.tracedNs-ls.untracedNs)/1e3, "traced minus untraced op time")
	return nil
}
