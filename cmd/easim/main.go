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
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/eadvfs/eadvfs"
	"github.com/eadvfs/eadvfs/internal/analysis"
	"github.com/eadvfs/eadvfs/internal/buildinfo"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/experiment"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/profiling"
)

func main() {
	var (
		policy     = flag.String("policy", "ea-dvfs", "scheduling policy: "+strings.Join(eadvfs.Policies(), ", "))
		predictor  = flag.String("predictor", "ewma", "harvest predictor: "+strings.Join(eadvfs.Predictors(), ", "))
		u          = flag.Float64("u", 0.4, "target utilization of the generated task set")
		numTasks   = flag.Int("tasks", 5, "number of periodic tasks")
		capacity   = flag.Float64("capacity", 1000, "energy storage capacity")
		horizon    = flag.Float64("horizon", 10000, "simulated time units")
		seed       = flag.Uint64("seed", 1, "master seed (workload + solar sample path)")
		pmax       = flag.Float64("pmax", 10, "processor maximum power (XScale table scaled)")
		energyF    = flag.Bool("energy", false, "print the stored-energy trace statistics")
		analyze    = flag.Bool("analyze", false, "print the analytic feasibility report for the workload")
		jsonF      = flag.Bool("json", false, "emit the result as JSON")
		faultX     = flag.Float64("fault-intensity", 0, "mixed-fault model intensity in (0, 1]; 0 disables")
		faultSeed  = flag.Uint64("fault-seed", 1, "fault schedule seed")
		check      = flag.Bool("check", false, "arm the runtime invariant checker")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile taken after the run to this file")

		events      = flag.Bool("events", false, "stream the structured event log (JSONL schema v1) to stdout instead of the summary")
		eventsOut   = flag.String("events-out", "", "write the structured event log to this file")
		metricsOut  = flag.String("metrics-out", "", "write a Prometheus text-format metrics snapshot to this file")
		manifestOut = flag.String("manifest-out", "", "write the run manifest (build, seeds, config digest) to this file")
		replay      = flag.String("replay", "", "re-run the configuration embedded in this manifest instead of the flags")
		validate    = flag.String("validate-events", "", "validate a JSONL event stream against the schema and exit")
		version     = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Line("easim"))
		return
	}
	if *validate != "" {
		validateEvents(*validate)
		return
	}
	if *events && *jsonF {
		fatal(fmt.Errorf("-events and -json both claim stdout; use -events-out with -json"))
	}
	if *events && *eventsOut != "" {
		fatal(fmt.Errorf("-events and -events-out are mutually exclusive"))
	}

	stopCPU, err := profiling.StartCPU(*cpuprofile)
	if err != nil {
		fatal(err)
	}
	defer stopCPU()
	defer func() {
		if err := profiling.WriteHeap(*memprofile); err != nil {
			fmt.Fprintln(os.Stderr, "easim:", err)
		}
	}()

	var cfg eadvfs.Config
	if *replay != "" {
		m, err := obs.ReadManifest(*replay)
		if err != nil {
			fatal(err)
		}
		if m.Tool != "easim" {
			fatal(fmt.Errorf("manifest %s was written by %q, not easim", *replay, m.Tool))
		}
		if err := m.DecodeConfig(&cfg); err != nil {
			fatal(err)
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
		eventsW = obs.NewJSONLWriter(os.Stdout)
	case *eventsOut != "":
		f, err := os.Create(*eventsOut)
		if err != nil {
			fatal(err)
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
			fatal(err)
		}
		if err := m.WriteFile(*manifestOut); err != nil {
			fatal(err)
		}
	}

	res, err := eadvfs.Run(cfg)
	if err != nil {
		fatal(err)
	}

	if eventsW != nil {
		if err := eventsW.Flush(); err != nil {
			fatal(err)
		}
	}
	if reg != nil {
		reg.RecordRun(runOutcome(res))
		f, err := os.Create(*metricsOut)
		if err != nil {
			fatal(err)
		}
		if err := reg.WritePrometheus(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	switch {
	case *events:
		// The event stream owns stdout; the summary is suppressed.
	case *jsonF:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
	default:
		printSummary(res, cfg.Capacity, *energyF)
	}

	if *analyze && !*events {
		printAnalysis(cfg, *horizon)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "easim:", err)
	os.Exit(1)
}

// validateEvents runs the schema checker over a JSONL stream and reports
// the verdict (exit 0 valid, 1 not).
func validateEvents(path string) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	n, err := obs.CheckJSONL(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "easim: %s: %v (after %d valid lines)\n", path, err, n)
		os.Exit(1)
	}
	fmt.Printf("%s: %d lines, schema v%d OK\n", path, n, obs.JSONLSchemaVersion)
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

func printSummary(res *eadvfs.Result, capacity float64, energyF bool) {
	fmt.Printf("policy            %s\n", res.Policy)
	fmt.Printf("jobs released     %d\n", res.Released)
	fmt.Printf("jobs finished     %d\n", res.Finished)
	fmt.Printf("deadline misses   %d\n", res.Missed)
	fmt.Printf("miss rate         %.4f\n", res.MissRate)
	fmt.Printf("busy / idle / stall  %.1f / %.1f / %.1f\n", res.BusyTime, res.IdleTime, res.StallTime)
	fmt.Printf("cpu energy        %.1f\n", res.CPUEnergy)
	fmt.Printf("harvested         %.1f (overflowed %.1f)\n", res.HarvestedEnergy, res.OverflowEnergy)
	fmt.Printf("final stored      %.1f / %.0f\n", res.FinalStored, capacity)
	fmt.Printf("level residency   ")
	for i, lt := range res.LevelTime {
		if i > 0 {
			fmt.Printf(" / ")
		}
		fmt.Printf("%.1f", lt)
	}
	fmt.Println()

	if d := res.Degradation; d != (eadvfs.Degradation{}) {
		fmt.Printf("degradation       dropout %.0f, spike %.0f (%.1f lost), stuck %.0f (%d clamps), blackout %.0f (%d stale)\n",
			d.SourceFaultTime, d.LeakSpikeTime, d.LeakSpikeEnergy,
			d.DVFSStuckTime, d.DVFSClamps, d.BlackoutTime, d.StaleForecasts)
		fmt.Printf("                  fade %.1f lost, %d overruns (+%.1f work)\n",
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
		fmt.Printf("stored energy     min %.1f  mean %.1f  max %.1f\n",
			minV, sum/float64(len(res.StoredEnergy)), maxV)
	}
}

func printAnalysis(cfg eadvfs.Config, horizon float64) {
	spec := experiment.DefaultSpec()
	spec.Utilization = cfg.Utilization
	spec.NumTasks = cfg.NumTasks
	spec.Seed = cfg.Seed
	spec.PMax = cfg.PMax
	rep, err := experiment.Replicate(spec, 0)
	if err != nil {
		fatal(err)
	}
	src := energy.NewSolarModel(rep.SourceSeed)
	report, err := analysis.Analyze(rep.Tasks, spec.Processor(), src, horizon)
	if err != nil {
		fatal(err)
	}
	fmt.Println()
	fmt.Printf("analysis: U = %.3f, density = %.3f, EDF schedulable = %v\n",
		report.Utilization, report.Density, report.EDFSchedulable)
	fmt.Printf("  full-speed demand   %.2f vs mean supply %.2f (margin %+.0f%%, miss floor %.2f)\n",
		report.FullSpeed.Demand, report.FullSpeed.MeanSupply,
		100*report.FullSpeed.Margin, report.FullSpeed.MissFloor)
	fmt.Printf("  min-feasible demand %.2f (margin %+.0f%%, miss floor %.2f)\n",
		report.MinFeasible.Demand, 100*report.MinFeasible.Margin, report.MinFeasible.MissFloor)
	fmt.Printf("  ride-through bound  %.0f (full speed) / %.0f (stretched)\n",
		report.RideThroughFull, report.RideThroughMin)
}
