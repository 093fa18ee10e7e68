// Command easim runs a single energy-harvesting real-time scheduling
// simulation and prints a summary.
//
// Usage:
//
//	easim [-policy ea-dvfs] [-predictor ewma] [-u 0.4] [-tasks 5]
//	      [-capacity 1000] [-horizon 10000] [-seed 1] [-pmax 10]
//	      [-fault-intensity 0] [-fault-seed 1] [-check] [-energy]
//	      [-analyze] [-json]
//	      [-events] [-events-out events.jsonl] [-metrics-out metrics.prom]
//	      [-manifest-out manifest.json] [-replay manifest.json]
//	      [-validate-events events.jsonl]
//	      [-cpuprofile cpu.out] [-memprofile mem.out] [-version]
//
// Observability: -events streams the run's structured event log (JSONL
// schema v1, internal/obs) to stdout instead of the summary; -events-out
// writes the same stream to a file alongside the normal output.
// -metrics-out writes a Prometheus text-format snapshot of the run's
// metrics, -manifest-out a run manifest (build, seeds, config + digest)
// that -replay feeds back to reproduce the run bit-identically.
// -validate-events checks a JSONL stream against the schema and exits.
//
// Example:
//
//	easim -policy lsa -u 0.4 -capacity 300
//	easim -policy ea-dvfs -u 0.4 -capacity 300 -analyze
//	easim -policy ea-dvfs -capacity 300 -fault-intensity 0.5 -check
//	easim -json -events-out ev.jsonl -manifest-out man.json > run.json
//	easim -replay man.json -json | diff run.json -
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/eadvfs/eadvfs"
	"github.com/eadvfs/eadvfs/internal/buildinfo"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/profiling"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit, so the CLI is testable
// without spawning a process. It returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("easim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		policy     = fs.String("policy", "ea-dvfs", "scheduling policy: "+strings.Join(eadvfs.Policies(), ", "))
		predictor  = fs.String("predictor", "ewma", "harvest predictor: "+strings.Join(eadvfs.Predictors(), ", "))
		u          = fs.Float64("u", 0.4, "target utilization of the generated task set")
		numTasks   = fs.Int("tasks", 5, "number of periodic tasks")
		capacity   = fs.Float64("capacity", 1000, "energy storage capacity")
		horizon    = fs.Float64("horizon", 10000, "simulated time units")
		seed       = fs.Uint64("seed", 1, "master seed (workload + solar sample path)")
		pmax       = fs.Float64("pmax", 10, "processor maximum power (XScale table scaled)")
		energyF    = fs.Bool("energy", false, "print the stored-energy trace statistics")
		analyze    = fs.Bool("analyze", false, "print the analytic feasibility report for the workload")
		jsonF      = fs.Bool("json", false, "emit the result as JSON")
		faultX     = fs.Float64("fault-intensity", 0, "mixed-fault model intensity in (0, 1]; 0 disables")
		faultSeed  = fs.Uint64("fault-seed", 1, "fault schedule seed")
		check      = fs.Bool("check", false, "arm the runtime invariant checker")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = fs.String("memprofile", "", "write an allocation profile taken after the run to this file")

		events      = fs.Bool("events", false, "stream the structured event log (JSONL schema v1) to stdout instead of the summary")
		eventsOut   = fs.String("events-out", "", "write the structured event log to this file")
		metricsOut  = fs.String("metrics-out", "", "write a Prometheus text-format metrics snapshot to this file")
		manifestOut = fs.String("manifest-out", "", "write the run manifest (build, seeds, config digest) to this file")
		replay      = fs.String("replay", "", "re-run the configuration embedded in this manifest instead of the flags")
		validate    = fs.String("validate-events", "", "validate a JSONL event stream against the schema and exit")
		version     = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "easim:", err)
		return 1
	}

	if *version {
		fmt.Fprintln(stdout, buildinfo.Line("easim"))
		return 0
	}
	if *validate != "" {
		return validateEvents(*validate, stdout, stderr)
	}
	if *events && *jsonF {
		return fail(fmt.Errorf("-events and -json both claim stdout; use -events-out with -json"))
	}
	if *events && *eventsOut != "" {
		return fail(fmt.Errorf("-events and -events-out are mutually exclusive"))
	}

	stopCPU, err := profiling.StartCPU(*cpuprofile)
	if err != nil {
		return fail(err)
	}
	defer stopCPU()
	defer func() {
		if err := profiling.WriteHeap(*memprofile); err != nil {
			fmt.Fprintln(stderr, "easim:", err)
		}
	}()

	var cfg eadvfs.Config
	if *replay != "" {
		m, err := obs.ReadManifest(*replay)
		if err != nil {
			return fail(err)
		}
		if m.Tool != "easim" {
			return fail(fmt.Errorf("manifest %s was written by %q, not easim", *replay, m.Tool))
		}
		if err := m.DecodeConfig(&cfg); err != nil {
			return fail(err)
		}
	} else {
		cfg = eadvfs.Config{
			Horizon:         *horizon,
			Policy:          *policy,
			Predictor:       *predictor,
			Capacity:        *capacity,
			PMax:            *pmax,
			NumTasks:        *numTasks,
			Utilization:     *u,
			Seed:            *seed,
			RecordEnergy:    *energyF,
			FaultIntensity:  *faultX,
			FaultSeed:       *faultSeed,
			CheckInvariants: *check,
		}
	}

	// Observability sinks. The probes compose through obs.Multi; a run
	// without any stays probe-free (nil) and pays nothing.
	var probes []obs.Probe
	var eventsW *obs.JSONLWriter
	switch {
	case *events:
		eventsW = obs.NewJSONLWriter(stdout)
	case *eventsOut != "":
		f, err := os.Create(*eventsOut)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		eventsW = obs.NewJSONLWriter(f)
	}
	if eventsW != nil {
		probes = append(probes, eventsW)
	}
	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
		probes = append(probes, obs.NewMetricsProbe(reg))
	}
	cfg.Probe = obs.Multi(probes...)

	if *manifestOut != "" {
		m, err := obs.NewManifest("easim", cfg.Policy,
			map[string]uint64{"seed": cfg.Seed, "fault-seed": cfg.FaultSeed}, cfg)
		if err != nil {
			return fail(err)
		}
		if err := m.WriteFile(*manifestOut); err != nil {
			return fail(err)
		}
	}

	res, err := eadvfs.Run(cfg)
	if err != nil {
		return fail(err)
	}

	if eventsW != nil {
		if err := eventsW.Flush(); err != nil {
			return fail(err)
		}
	}
	if reg != nil {
		reg.RecordRun(runOutcome(res))
		if err := writeMetrics(*metricsOut, reg); err != nil {
			return fail(err)
		}
	}

	switch {
	case *events:
		// The event stream owns stdout; the summary is suppressed.
	case *jsonF:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return fail(err)
		}
	default:
		printSummary(stdout, res, cfg.Capacity, *energyF)
	}

	if *analyze && !*events {
		report, err := eadvfs.Analyze(cfg)
		if err != nil {
			return fail(err)
		}
		printAnalysis(stdout, report)
	}
	return 0
}

// writeMetrics writes a Prometheus text-format snapshot of reg to path.
func writeMetrics(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// validateEvents runs the schema checker over a JSONL stream and reports
// the verdict (exit 0 valid, 1 not).
func validateEvents(path string, stdout, stderr io.Writer) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(stderr, "easim:", err)
		return 1
	}
	defer f.Close()
	n, err := obs.CheckJSONL(f)
	if err != nil {
		fmt.Fprintf(stderr, "easim: %s: %v (after %d valid lines)\n", path, err, n)
		return 1
	}
	fmt.Fprintf(stdout, "%s: %d lines, schema v%d OK\n", path, n, obs.JSONLSchemaVersion)
	return 0
}

// runOutcome is the run's aggregate outcome in the form the eadvfs_run_*
// recorder (obs.Registry.RecordRun) takes — the series the experiment
// harness exports too, so dashboards work on either.
func runOutcome(res *eadvfs.Result) obs.RunOutcome {
	return obs.RunOutcome{
		Released:  res.Released,
		Finished:  res.Finished,
		Missed:    res.Missed,
		MissRate:  res.MissRate,
		BusyTime:  res.BusyTime,
		IdleTime:  res.IdleTime,
		StallTime: res.StallTime,
		CPUEnergy: res.CPUEnergy,
		Degraded:  res.Degradation != (eadvfs.Degradation{}),
	}
}

func printSummary(w io.Writer, res *eadvfs.Result, capacity float64, energyF bool) {
	fmt.Fprintf(w, "policy            %s\n", res.Policy)
	fmt.Fprintf(w, "jobs released     %d\n", res.Released)
	fmt.Fprintf(w, "jobs finished     %d\n", res.Finished)
	fmt.Fprintf(w, "deadline misses   %d\n", res.Missed)
	fmt.Fprintf(w, "miss rate         %.4f\n", res.MissRate)
	fmt.Fprintf(w, "busy / idle / stall  %.1f / %.1f / %.1f\n", res.BusyTime, res.IdleTime, res.StallTime)
	fmt.Fprintf(w, "cpu energy        %.1f\n", res.CPUEnergy)
	fmt.Fprintf(w, "harvested         %.1f (overflowed %.1f)\n", res.HarvestedEnergy, res.OverflowEnergy)
	fmt.Fprintf(w, "final stored      %.1f / %.0f\n", res.FinalStored, capacity)
	fmt.Fprintf(w, "level residency   ")
	for i, lt := range res.LevelTime {
		if i > 0 {
			fmt.Fprintf(w, " / ")
		}
		fmt.Fprintf(w, "%.1f", lt)
	}
	fmt.Fprintln(w)

	if d := res.Degradation; d != (eadvfs.Degradation{}) {
		fmt.Fprintf(w, "degradation       dropout %.0f, spike %.0f (%.1f lost), stuck %.0f (%d clamps), blackout %.0f (%d stale)\n",
			d.SourceFaultTime, d.LeakSpikeTime, d.LeakSpikeEnergy,
			d.DVFSStuckTime, d.DVFSClamps, d.BlackoutTime, d.StaleForecasts)
		fmt.Fprintf(w, "                  fade %.1f lost, %d overruns (+%.1f work)\n",
			d.FadeEnergy, d.Overruns, d.OverrunWork)
	}

	if energyF && len(res.StoredEnergy) > 0 {
		minV, maxV, sum := res.StoredEnergy[0], res.StoredEnergy[0], 0.0
		for _, v := range res.StoredEnergy {
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
			sum += v
		}
		fmt.Fprintf(w, "stored energy     min %.1f  mean %.1f  max %.1f\n",
			minV, sum/float64(len(res.StoredEnergy)), maxV)
	}
}

// printAnalysis prints the closed-form feasibility report of the run's
// workload (eadvfs.Analyze).
func printAnalysis(w io.Writer, report eadvfs.Analysis) {
	fmt.Fprintln(w)
	fmt.Fprintf(w, "analysis: U = %.3f, density = %.3f, EDF schedulable = %v\n",
		report.Utilization, report.Density, report.EDFSchedulable)
	fmt.Fprintf(w, "  full-speed demand   %.2f vs mean supply %.2f (margin %+.0f%%, miss floor %.2f)\n",
		report.FullSpeed.Demand, report.FullSpeed.MeanSupply,
		100*report.FullSpeed.Margin, report.FullSpeed.MissFloor)
	fmt.Fprintf(w, "  min-feasible demand %.2f (margin %+.0f%%, miss floor %.2f)\n",
		report.MinFeasible.Demand, 100*report.MinFeasible.Margin, report.MinFeasible.MissFloor)
	fmt.Fprintf(w, "  ride-through bound  %.0f (full speed) / %.0f (stretched)\n",
		report.RideThroughFull, report.RideThroughMin)
}
