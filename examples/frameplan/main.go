// Frameplan: the offline frame-based planner (Allavena & Mossé style,
// the paper's reference [4]) versus the online policies, under the
// constant-harvest assumption the offline approach requires.
//
// A frame of independent tasks is planned offline: the minimum-energy
// two-point DVFS schedule that fits the frame and keeps the battery
// non-negative. The same workload then runs through the online simulator
// under EDF, LSA and EA-DVFS. With a *constant* source the offline plan
// is the gold standard; the example then breaks the assumption (same mean
// power, but delivered in bursts) and shows why the paper insists on
// modeling source variability.
//
//	go run ./examples/frameplan
package main

import (
	"fmt"
	"log"

	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/experiment"
	"github.com/eadvfs/eadvfs/internal/offline"
	"github.com/eadvfs/eadvfs/internal/sim"
	"github.com/eadvfs/eadvfs/internal/storage"
	"github.com/eadvfs/eadvfs/internal/task"
)

func main() {
	const (
		frame    = 100.0
		recharge = 1.2
		battery  = 60.0
	)
	wcets := []float64{6, 10, 14} // 30 work units per frame
	proc := cpu.XScaleScaled(10)

	// Offline plan under the constant-harvest assumption.
	plan, err := offline.Solve(proc, offline.FrameSpec{
		Frame: frame, WCETs: wcets,
		RechargePower: recharge, InitialEnergy: battery, Capacity: battery,
	})
	if err != nil {
		log.Fatal(err)
	}
	lb, _ := offline.ContinuousLowerBound(proc, offline.FrameSpec{
		Frame: frame, WCETs: wcets,
		RechargePower: recharge, InitialEnergy: battery, Capacity: battery,
	})
	fmt.Printf("offline plan: levels %d→%d, start %.1f, busy %.1f, energy %.2f (continuous bound %.2f)\n",
		plan.SlowLevel, plan.FastLevel, plan.Start, plan.BusyTime(), plan.Energy, lb)
	fmt.Printf("battery at frame end: %.2f of %.0f\n\n", plan.EndEnergy, battery)

	// The same workload as periodic tasks over many frames, online.
	var tasks []task.Task
	for i, w := range wcets {
		tasks = append(tasks, task.Task{ID: i, Period: frame, Deadline: frame, WCET: w})
	}

	fmt.Println("online policies, 50 frames:")
	fmt.Printf("%-10s %28s %28s\n", "", "constant source", "bursty source (same mean)")
	fmt.Printf("%-10s %9s %9s %8s %9s %9s %8s\n",
		"policy", "missed", "energy", "final", "missed", "energy", "final")
	for _, name := range []string{"edf", "lsa", "ea-dvfs"} {
		row := fmt.Sprintf("%-10s", name)
		for _, bursty := range []bool{false, true} {
			var src energy.Source
			if bursty {
				// Same mean power 1.2, delivered 6.0 one fifth of the time.
				src = energy.NewTrace([]float64{6, 0, 0, 0, 0})
			} else {
				src = energy.NewConstant(recharge)
			}
			pf, err := experiment.Policy(name)
			if err != nil {
				log.Fatal(err)
			}
			res, err := sim.Run(&sim.Config{
				Horizon:   50 * frame,
				Tasks:     tasks,
				Source:    src,
				Predictor: energy.NewEWMA(0.2),
				Store:     storage.New(battery, battery),
				CPU:       proc,
				Policy:    pf(),
			})
			if err != nil {
				log.Fatal(err)
			}
			row += fmt.Sprintf(" %9d %9.1f %8.1f", res.Miss.Missed, res.CPUEnergy, res.FinalLevel)
		}
		fmt.Println(row)
	}
	fmt.Println()
	fmt.Printf("offline energy x 50 frames would be %.1f — the bound online policies chase.\n", 50*plan.Energy)
	fmt.Println("With the source known and constant, the offline plan stretches everything")
	fmt.Println("to the frame boundary and wins outright; among the online policies only")
	fmt.Println("EA-DVFS closes part of that gap, and it keeps its advantage unchanged when")
	fmt.Println("the source turns bursty — the variability that breaks [4]'s assumptions.")
}
