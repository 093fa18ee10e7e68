// Command eatrace renders the schedule of a small scenario as an ASCII
// Gantt chart — the fastest way to *see* what a policy does.
//
// Usage:
//
//	eatrace [-scenario fig1|fig3|random] [-policy ea-dvfs] [-width 78]
//	        [-u 0.4] [-horizon 400] [-seed 1]      (random scenario)
//	        [-csv] [-activity] [-audit] [-version]
//
// Examples:
//
//	eatrace -scenario fig1 -policy lsa        the paper's §2 example
//	eatrace -scenario fig1 -policy ea-dvfs
//	eatrace -scenario fig1 -policy ea-dvfs -audit
//	eatrace -scenario fig3 -policy greedy-stretch
//	eatrace -scenario random -u 0.4 -policy ea-dvfs -horizon 400
//
// -csv emits the segment CSV instead of the chart; -activity appends the
// per-task activity table; -audit prints the scheduler's decision log
// (time, job, slack, energy state, s1/s2, chosen level and reason code)
// next to the Gantt.
//
// Legend: digits = operating point (0 slowest), '!' = stalled on empty
// storage, '^' arrival, 'v' completion, 'X' deadline miss.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"github.com/eadvfs/eadvfs/internal/buildinfo"
	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/experiment"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/sim"
	"github.com/eadvfs/eadvfs/internal/storage"
	"github.com/eadvfs/eadvfs/internal/task"
	"github.com/eadvfs/eadvfs/internal/trace"
)

func main() {
	var (
		scenario = flag.String("scenario", "fig1", "fig1, fig3, or random")
		policy   = flag.String("policy", "ea-dvfs", "scheduling policy")
		u        = flag.Float64("u", 0.4, "utilization (random scenario)")
		horizon  = flag.Float64("horizon", 400, "horizon (random scenario)")
		seed     = flag.Uint64("seed", 1, "seed (random scenario)")
		width    = flag.Int("width", 78, "gantt width in columns")
		csv      = flag.Bool("csv", false, "emit the segment CSV instead of the gantt")
		activity = flag.Bool("activity", false, "append the per-task activity table (responses, jitter, fragments)")
		audit    = flag.Bool("audit", false, "append the scheduler decision log (slack, energy, s1/s2, reason codes)")
		version  = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Line("eatrace"))
		return
	}

	pf, err := experiment.Policy(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eatrace:", err)
		os.Exit(1)
	}

	rec := trace.NewRecorder()
	var cfg *sim.Config
	switch *scenario {
	case "fig1":
		src := energy.NewConstant(0.5)
		cfg = &sim.Config{
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
	case "fig3":
		src := energy.NewConstant(0)
		cfg = &sim.Config{
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
	case "random":
		spec := experiment.DefaultSpec()
		spec.Utilization = *u
		spec.Seed = *seed
		rep, err := experiment.Replicate(spec, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "eatrace:", err)
			os.Exit(1)
		}
		src := energy.NewSolarModel(rep.SourceSeed)
		cfg = &sim.Config{
			Horizon:   *horizon,
			Tasks:     rep.Tasks,
			Source:    src,
			Predictor: energy.NewEWMA(0.2),
			Store:     storage.NewIdeal(300),
			CPU:       spec.Processor(),
		}
	default:
		fmt.Fprintf(os.Stderr, "eatrace: unknown scenario %q\n", *scenario)
		os.Exit(2)
	}
	cfg.Policy = pf()
	cfg.Probe = rec
	var auditRec *obs.Recorder
	if *audit {
		auditRec = obs.NewRecorder()
		cfg.Probe = obs.Multi(rec, auditRec)
	}

	res, err := sim.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eatrace:", err)
		os.Exit(1)
	}

	if *csv {
		fmt.Print(rec.CSV())
		return
	}
	fmt.Printf("scenario %s under %s — released %d, finished %d, missed %d\n\n",
		*scenario, cfg.Policy.Name(), res.Miss.Released, res.Miss.Finished, res.Miss.Missed)
	fmt.Print(rec.Gantt(cfg.Horizon, *width))
	fmt.Printf("\ndigits = DVFS level (0 slowest), '!' stall, '^' arrival, 'v' completion, 'X' miss\n")
	if *activity {
		fmt.Println()
		fmt.Print(rec.ActivityTable())
	}
	if auditRec != nil {
		fmt.Println()
		printAudit(auditRec.Decisions())
	}
}

// printAudit renders the decision log: one line per policy decision with
// the job, its slack, the energy estimate the policy used, the s1/s2
// instants, the chosen operating point and the reason code. Consecutive
// identical decisions (same job, reason and level — the re-evaluations a
// lazy policy makes at every event while idling) are compressed into one
// line with a repeat count.
func printAudit(decs []obs.DecisionRecord) {
	fmt.Println("decision audit (consecutive identical decisions compressed):")
	fmt.Printf("%8s %-22s %8s %8s %8s %8s %8s %5s %6s  %s\n",
		"t", "job", "slack", "stored", "avail", "s1", "s2", "level", "until", "reason")
	for i := 0; i < len(decs); {
		d := decs[i]
		j := i + 1
		for j < len(decs) && decs[j].TaskID == d.TaskID && decs[j].Seq == d.Seq &&
			decs[j].Reason == d.Reason && decs[j].Level == d.Level {
			j++
		}
		job := "-"
		if d.TaskID >= 0 {
			job = fmt.Sprintf("task %d#%d", d.TaskID, d.Seq)
		}
		if n := j - i; n > 1 {
			job += fmt.Sprintf(" (x%d)", n)
		}
		level := "-"
		if d.Level >= 0 {
			level = fmt.Sprintf("%d", d.Level)
		}
		until := "-"
		if !math.IsInf(d.Until, 0) {
			until = fmt.Sprintf("%.2f", d.Until)
		}
		fmt.Printf("%8.2f %-22s %8.2f %8.1f %8.1f %8.2f %8.2f %5s %6s  %s\n",
			d.Time, job, d.Slack, d.Stored, d.Available, d.S1, d.S2, level, until, d.Reason)
		i = j
	}
}
