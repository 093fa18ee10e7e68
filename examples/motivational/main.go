// Motivational: the paper's two worked examples, executed end to end.
//
// §2 / Figure 1 — τ1 = (0, 16, 4), τ2 = (5, 16, 1.5), EC(0) = 24,
// P_s = 0.5, P_max = 8: LSA starts τ1 at 12, drains the store exactly at
// 16 and τ2 starves; EA-DVFS runs τ1 at half speed from 4 to 12 and both
// deadlines are met.
//
// §4.3 / Figure 3 — τ1 = (0, 16, 4), τ2 = (5, 12, 1.5), EA = 32,
// f_n = 0.25·f_max: unbounded stretching (greedy) makes τ2 unschedulable
// in *time* despite ample energy; EA-DVFS's switch to full speed at the
// locked s2 = 12 finishes τ1 at 13 and rescues τ2.
//
//	go run ./examples/motivational
package main

import (
	"fmt"
	"log"

	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/experiment"
	"github.com/eadvfs/eadvfs/internal/sim"
	"github.com/eadvfs/eadvfs/internal/storage"
	"github.com/eadvfs/eadvfs/internal/task"
	"github.com/eadvfs/eadvfs/internal/trace"
)

func main() {
	fmt.Println("=== Figure 1 (motivational example, §2) ===")
	runScenario(fig1, "lsa", "ea-dvfs")

	fmt.Println("=== Figure 3 (preventing excessive stretching, §4.3) ===")
	runScenario(fig3, "greedy-stretch", "ea-dvfs")
}

func fig1() *sim.Config {
	src := energy.NewConstant(0.5)
	return &sim.Config{
		Horizon: 25,
		Tasks: []task.Task{
			{ID: 1, Period: 1e9, Deadline: 16, WCET: 4, Offset: 0},
			{ID: 2, Period: 1e9, Deadline: 16, WCET: 1.5, Offset: 5},
		},
		Source:    src,
		Predictor: energy.NewOracle(src),
		Store:     storage.New(1e6, 24),
		CPU:       cpu.TwoSpeed(8),
	}
}

func fig3() *sim.Config {
	src := energy.NewConstant(0)
	return &sim.Config{
		Horizon: 20,
		Tasks: []task.Task{
			{ID: 1, Period: 1e9, Deadline: 16, WCET: 4, Offset: 0},
			{ID: 2, Period: 1e9, Deadline: 12, WCET: 1.5, Offset: 5},
		},
		Source:    src,
		Predictor: energy.NewOracle(src),
		Store:     storage.New(1e6, 32),
		CPU:       cpu.Fig3(),
	}
}

func runScenario(mk func() *sim.Config, policies ...string) {
	for _, name := range policies {
		pf, err := experiment.Policy(name)
		if err != nil {
			log.Fatal(err)
		}
		rec := trace.NewRecorder()
		cfg := mk()
		cfg.Policy = pf()
		cfg.Probe = rec
		res, err := sim.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s: finished %d, missed %d, cpu energy %.1f\n",
			name, res.Miss.Finished, res.Miss.Missed, res.CPUEnergy)
		fmt.Print(rec.Gantt(cfg.Horizon, 72))
	}
	fmt.Println()
}
