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

	"github.com/eadvfs/eadvfs/internal/runspec"
	"github.com/eadvfs/eadvfs/internal/sim"
	"github.com/eadvfs/eadvfs/internal/trace"
)

func main() {
	fmt.Println("=== Figure 1 (motivational example, §2) ===")
	runScenario("fig1", "lsa", "ea-dvfs")

	fmt.Println("=== Figure 3 (preventing excessive stretching, §4.3) ===")
	runScenario("fig3", "greedy-stretch", "ea-dvfs")
}

// runScenario runs one of the paper's worked examples (internal/runspec's
// paper documents) under each policy and prints its Gantt chart.
func runScenario(name string, policies ...string) {
	for _, policy := range policies {
		doc, err := runspec.Paper(name)
		if err != nil {
			log.Fatal(err)
		}
		doc.Policy = policy
		cfg, err := doc.Compile(false)
		if err != nil {
			log.Fatal(err)
		}
		rec := trace.NewRecorder()
		cfg.Probe = rec
		res, err := sim.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s: finished %d, missed %d, cpu energy %.1f\n",
			policy, res.Miss.Finished, res.Miss.Missed, res.CPUEnergy)
		fmt.Print(rec.Gantt(cfg.Horizon, 72))
	}
	fmt.Println()
}
