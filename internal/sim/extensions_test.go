package sim

import (
	"math"
	"testing"

	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/sched"
	"github.com/eadvfs/eadvfs/internal/storage"
	"github.com/eadvfs/eadvfs/internal/task"
)

// Idle power drains the store while the processor waits, so a lazy policy
// must end with less energy and (possibly) more misses.
func TestEngineIdlePower(t *testing.T) {
	base := []cpu.OperatingPoint{
		{FreqMHz: 150, Power: 0.25}, {FreqMHz: 1000, Power: 10},
	}
	mk := func(proc *cpu.Processor) *Result {
		src := energy.NewConstant(0.3)
		cfg := &Config{
			Horizon:   500,
			Tasks:     []task.Task{{ID: 0, Period: 50, Deadline: 50, WCET: 2}},
			Source:    src,
			Predictor: energy.NewOracle(src),
			Store:     storage.New(200, 200),
			CPU:       proc,
			Policy:    sched.LSA{},
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	noIdle := mk(cpu.New(base))
	withIdle := mk(cpu.New(base, cpu.WithIdlePower(0.1)))
	if withIdle.FinalLevel >= noIdle.FinalLevel {
		t.Fatalf("idle draw did not reduce final energy: %v vs %v",
			withIdle.FinalLevel, noIdle.FinalLevel)
	}
	if math.Abs(withIdle.ConservationErr) > 1e-6*(1+withIdle.Meters.Harvested) {
		t.Fatalf("conservation error with idle power: %v", withIdle.ConservationErr)
	}
}

// Idle power can itself empty the store; the engine must stall rather
// than panic, and resume when harvest returns.
func TestEngineIdlePowerDepletion(t *testing.T) {
	proc := cpu.New([]cpu.OperatingPoint{{FreqMHz: 1000, Power: 5}},
		cpu.WithIdlePower(1))
	// Harvest 0 for a while: idle drains 10 units in 10 time units.
	src := energy.NewTrace([]float64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 8, 8, 8, 8, 8})
	cfg := &Config{
		Horizon:   30,
		Tasks:     []task.Task{{ID: 0, Period: 1e9, Deadline: 25, WCET: 1, Offset: 12}},
		Source:    src,
		Predictor: energy.NewOracle(src),
		Store:     storage.New(5, 5),
		CPU:       proc,
		Policy:    sched.EDF{},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.StallTime <= 0 {
		t.Fatal("expected idle-power stall")
	}
	if res.Miss.Finished != 1 {
		t.Fatalf("job should finish once harvest returns: %+v", res.Miss)
	}
}

// RecordEnergy series values always match the reservoir bounds.
func TestEnergySeriesWithinBounds(t *testing.T) {
	src := energy.NewSolarModel(3)
	cfg := &Config{
		Horizon:      2000,
		Tasks:        paperWorkload(3, 0.6, 5),
		Source:       src,
		Predictor:    energy.NewEWMA(0.2),
		Store:        storage.NewIdeal(250),
		CPU:          cpu.XScaleScaled(10),
		Policy:       sched.LSA{},
		RecordEnergy: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergySeries.Len() != 2001 {
		t.Fatalf("series length %d", res.EnergySeries.Len())
	}
	for i, v := range res.EnergySeries.Values {
		if v < -1e-9 || v > 250+1e-9 {
			t.Fatalf("series[%d] = %v outside [0, 250]", i, v)
		}
	}
}
