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
	"io"
	"math"
	"os"

	"github.com/eadvfs/eadvfs/internal/buildinfo"
	"github.com/eadvfs/eadvfs/internal/experiment"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/runspec"
	"github.com/eadvfs/eadvfs/internal/sim"
	"github.com/eadvfs/eadvfs/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "eatrace:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, runs the scenario and writes
// the chart (or CSV) to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("eatrace", flag.ExitOnError)
	var (
		scenario = fs.String("scenario", "fig1", "fig1, fig3, or random")
		policy   = fs.String("policy", "ea-dvfs", "scheduling policy")
		u        = fs.Float64("u", 0.4, "utilization (random scenario)")
		horizon  = fs.Float64("horizon", 400, "horizon (random scenario)")
		seed     = fs.Uint64("seed", 1, "seed (random scenario)")
		width    = fs.Int("width", 78, "gantt width in columns")
		csv      = fs.Bool("csv", false, "emit the segment CSV instead of the gantt")
		activity = fs.Bool("activity", false, "append the per-task activity table (responses, jitter, fragments)")
		audit    = fs.Bool("audit", false, "append the scheduler decision log (slack, energy, s1/s2, reason codes)")
		version  = fs.Bool("version", false, "print the build version and exit")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag exits 2 with the usage
	if *version {
		fmt.Fprintln(stdout, buildinfo.Line("eatrace"))
		return nil
	}

	var doc *runspec.Spec
	var err error
	switch *scenario {
	case "fig1", "fig3":
		if doc, err = runspec.Paper(*scenario); err != nil {
			return err
		}
	case "random":
		spec := experiment.DefaultSpec()
		spec.Utilization = *u
		spec.Seed = *seed
		rep, err := experiment.Replicate(spec, 0)
		if err != nil {
			return err
		}
		doc = &runspec.Spec{
			Predictor: spec.Predictor,
			Horizon:   *horizon,
			Tasks:     rep.Tasks,
			Source:    runspec.SourceSpec{Kind: "solar", Seed: rep.SourceSeed, Amplitude: 10},
			Capacity:  300,
			Initial:   300,
			CPU:       "xscale",
			PMax:      spec.PMax,
		}
	default:
		return fmt.Errorf("unknown scenario %q", *scenario)
	}
	doc.Policy = *policy
	cfg, err := doc.Compile(false)
	if err != nil {
		return err
	}
	rec := trace.NewRecorder()
	cfg.Probe = rec
	var auditRec *obs.Recorder
	if *audit {
		auditRec = obs.NewRecorder()
		cfg.Probe = obs.Multi(rec, auditRec)
	}

	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}

	if *csv {
		fmt.Fprint(stdout, rec.CSV())
		return nil
	}
	fmt.Fprintf(stdout, "scenario %s under %s — released %d, finished %d, missed %d\n\n",
		*scenario, cfg.Policy.Name(), res.Miss.Released, res.Miss.Finished, res.Miss.Missed)
	fmt.Fprint(stdout, rec.Gantt(cfg.Horizon, *width))
	fmt.Fprintf(stdout, "\ndigits = DVFS level (0 slowest), '!' stall, '^' arrival, 'v' completion, 'X' miss\n")
	if *activity {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, rec.ActivityTable())
	}
	if auditRec != nil {
		fmt.Fprintln(stdout)
		printAudit(stdout, auditRec.Decisions())
	}
	return nil
}

// printAudit renders the decision log: one line per policy decision with
// the job, its slack, the energy estimate the policy used, the s1/s2
// instants, the chosen operating point and the reason code. Consecutive
// identical decisions (same job, reason and level — the re-evaluations a
// lazy policy makes at every event while idling) are compressed into one
// line with a repeat count.
func printAudit(w io.Writer, decs []obs.DecisionRecord) {
	fmt.Fprintln(w, "decision audit (consecutive identical decisions compressed):")
	fmt.Fprintf(w, "%8s %-22s %8s %8s %8s %8s %8s %5s %6s  %s\n",
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
		fmt.Fprintf(w, "%8.2f %-22s %8.2f %8.1f %8.1f %8.2f %8.2f %5s %6s  %s\n",
			d.Time, job, d.Slack, d.Stored, d.Available, d.S1, d.S2, level, until, d.Reason)
		i = j
	}
}
