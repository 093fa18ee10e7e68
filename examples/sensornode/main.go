// Sensornode: a solar-powered wireless sensor node — the deployment the
// paper's introduction motivates (sensor nodes "deployed in radioactive
// surroundings" where batteries cannot be changed).
//
// The node runs three periodic real-time tasks (sampling, local
// processing, radio transmission) through four simulated days of a
// day/night solar profile with weather noise, on a small supercapacitor.
// The example compares EDF, LSA and EA-DVFS on deadline misses, energy
// head-room, and the operating points actually used.
//
//	go run ./examples/sensornode
package main

import (
	"fmt"
	"log"

	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/experiment"
	"github.com/eadvfs/eadvfs/internal/rng"
	"github.com/eadvfs/eadvfs/internal/sim"
	"github.com/eadvfs/eadvfs/internal/storage"
	"github.com/eadvfs/eadvfs/internal/task"
)

// day is the length of one simulated day in time units.
const day = 1000.0

// solarDay builds a day/night source with stochastic clouds: a Rusu-style
// two-mode base (12 "hours" of sun) modulated by half-normal noise.
func solarDay(seed uint64) energy.Source {
	base := energy.NewTwoMode(8, 0.2, day, day/2)
	r := rng.New(seed)
	samples := make([]float64, int(4*day))
	for i := range samples {
		cloud := 0.5 + float64(0.5*r.HalfNormal()) // mean ≈ 0.9
		if cloud > 1.5 {
			cloud = 1.5
		}
		samples[i] = base.PowerAt(float64(i)) * cloud
	}
	return energy.NewTrace(samples)
}

func main() {
	// The node's firmware: sample fast, process at medium rate, transmit
	// in slow bursts. WCETs at full speed; deadlines = periods.
	tasks := []task.Task{
		{ID: 0, Period: 20, Deadline: 20, WCET: 2},    // sensor sampling (U=0.10)
		{ID: 1, Period: 50, Deadline: 50, WCET: 6},    // signal processing (U=0.12)
		{ID: 2, Period: 200, Deadline: 200, WCET: 30}, // radio burst (U=0.15)
	}
	u := task.SetUtilization(tasks)
	fmt.Printf("sensor node workload: U = %.2f, 3 tasks, 4 simulated days\n\n", u)

	fmt.Printf("%-10s %9s %7s %9s %10s %10s %12s\n",
		"policy", "released", "missed", "missrate", "stall", "overflow", "lowest-level")
	for _, name := range []string{"edf", "lsa", "ea-dvfs"} {
		pf, err := experiment.Policy(name)
		if err != nil {
			log.Fatal(err)
		}
		src := solarDay(7)
		cfg := &sim.Config{
			Horizon:   4 * day,
			Tasks:     tasks,
			Source:    src,
			Predictor: energy.NewSlotEWMA(day, 48, 0.3), // learns the diurnal profile
			Store:     storage.New(400, 400),            // small supercap
			CPU:       cpu.XScaleScaled(10),
			Policy:    pf(),
		}
		res, err := sim.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		// Share of execution time on the two slowest operating points —
		// how much the policy actually exploited DVFS.
		slow := 0.0
		if res.BusyTime > 0 {
			slow = (res.LevelTime[0] + res.LevelTime[1]) / res.BusyTime
		}
		fmt.Printf("%-10s %9d %7d %9.3f %10.1f %10.0f %11.0f%%\n",
			name, res.Miss.Released, res.Miss.Missed, res.Miss.Rate(),
			res.StallTime, res.Meters.Overflow, 100*slow)
	}

	fmt.Println()
	fmt.Println("EA-DVFS rides through the nights by slowing the radio bursts down;")
	fmt.Println("the full-speed policies burn the supercap early and stall before dawn.")
}
