// Command eaexp regenerates the paper's evaluation artifacts:
//
//	eaexp -exp fig5              energy source sample path (Figure 5)
//	eaexp -exp fig6              remaining energy, U = 0.4 (Figure 6)
//	eaexp -exp fig7              remaining energy, U = 0.8 (Figure 7)
//	eaexp -exp fig8              miss rate vs capacity, U = 0.4 (Figure 8)
//	eaexp -exp fig9              miss rate vs capacity, U = 0.8 (Figure 9)
//	eaexp -exp table1            minimum-capacity ratios (Table 1)
//	eaexp -exp all               everything
//
// Studies beyond the paper (not part of -exp all; name them explicitly):
//
//	eaexp -exp sens-levels       miss rate vs number of DVFS operating points
//	eaexp -exp sens-pmax         miss rate vs processor power scale
//	eaexp -exp sens-tasks        miss rate vs number of tasks per set
//	eaexp -exp sens-predictors   miss rate per registered harvest predictor
//	eaexp -exp overhead          switches, preemptions, decisions and events per run
//	eaexp -exp convergence       miss-rate estimate vs replication count
//	eaexp -exp robustness        miss rate vs fault intensity
//	eaexp -exp slack             miss rate vs best-case/WCET ratio, reclaiming policies
//	eaexp -exp sleep             miss rate per DPM sleep preset
//
// Each experiment prints an ASCII chart or table and, with -csv DIR,
// writes the raw series as CSV. -replications trades fidelity for time
// (the paper used 5000 task sets per point).
//
// Further flags: -seed, -pmax, -predictor, -alpha and -width shape the
// spec and charts (-alpha tunes the -predictor; sens-predictors runs
// every predictor at its built-in default); -cpuprofile/-memprofile write
// pprof profiles; -version prints the build identity.
//
// The robustness sweep subjects the -policies set (default EDF, LSA and
// EA-DVFS) to the canonical mixed-fault model (harvester dropouts,
// storage fade and leakage spikes, stuck DVFS, predictor blackouts, WCET
// overruns) at each -intensities step; -fault-seed pins the fault
// schedule, -capacity the storage size.
//
// Observability: while a sweep runs, a live progress line (runs done /
// total, ETA, degraded-run count) is rewritten on stderr when it is a
// terminal; -quiet suppresses it. -metrics-out aggregates every run of
// the sweep into a Prometheus text-format snapshot, -events-out streams
// the structured per-run event log (JSONL schema v1 — large!), and
// -manifest-out records the experiment's build, seeds and parameter
// digest for reproduction.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/eadvfs/eadvfs/internal/buildinfo"
	"github.com/eadvfs/eadvfs/internal/experiment"
	"github.com/eadvfs/eadvfs/internal/metrics"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/plot"
	"github.com/eadvfs/eadvfs/internal/profiling"
	"github.com/eadvfs/eadvfs/internal/registry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError is an invocation the command cannot run: main exits 2 for
// it and 1 for any other error.
type usageError struct{ error }

// run is the whole command: it parses args, runs the selected
// experiments and writes their charts and tables to stdout. Errors come
// back prefixed for stderr; the progress line and the errors of deferred
// writes go to stderr directly.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("eaexp", flag.ExitOnError)
	var (
		exp   = fs.String("exp", "all", "experiment: fig5, fig6, fig7, fig8, fig9, table1, all; beyond the paper: sens-levels, sens-pmax, sens-tasks, sens-predictors, overhead, convergence, robustness, slack, sleep")
		reps  = fs.Int("replications", 0, "task sets per point (0 = experiment default)")
		seed  = fs.Uint64("seed", 1, "master seed")
		pmax  = fs.Float64("pmax", 10, "processor maximum power")
		pred  = fs.String("predictor", "ewma", "harvest predictor")
		alpha = fs.Float64("alpha", 0, "predictor smoothing factor override in (0, 1]; 0 keeps the default")
		csv   = fs.String("csv", "", "directory for CSV output (omit to skip)")
		width = fs.Int("width", 72, "chart width in columns")

		// -exp robustness parameters.
		intensities = fs.String("intensities", "0,0.25,0.5,0.75,1", "comma-separated fault intensities in [0, 1]")
		faultSeed   = fs.Uint64("fault-seed", 1, "master fault-schedule seed")
		capacity    = fs.Float64("capacity", 1000, "storage capacity of the robustness sweep")
		policies    = fs.String("policies", "edf,lsa,ea-dvfs", "comma-separated policies of the robustness sweep")

		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = fs.String("memprofile", "", "write an allocation profile taken after the run to this file")

		// -exp slack / -exp sleep parameters.
		slackFactors = fs.String("slack-factors", "0.1,0.25,0.5,0.75,1", "comma-separated best-case/WCET ratios of the slack sweep, each in (0, 1]")
		sleepPresets = fs.String("sleep-presets", "none,default", "comma-separated DPM sleep presets of the sleep ablation")

		validateEvents = fs.Bool("validate-events", false, "validate every structured event and decision audit against the closed obs tables; exit non-zero on any violation")

		quiet       = fs.Bool("quiet", false, "suppress the live progress line on stderr")
		metricsOut  = fs.String("metrics-out", "", "write a Prometheus text-format snapshot aggregated over all runs to this file")
		eventsOut   = fs.String("events-out", "", "write the structured per-run event log (JSONL schema v1) to this file")
		manifestOut = fs.String("manifest-out", "", "write the experiment manifest (build, seeds, parameter digest) to this file")
		version     = fs.Bool("version", false, "print the build version and exit")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag exits 2 with the usage

	if *version {
		fmt.Fprintln(stdout, buildinfo.Line("eaexp"))
		return nil
	}

	stopCPU, err := profiling.StartCPU(*cpuprofile)
	if err != nil {
		return fmt.Errorf("eaexp: %w", err)
	}
	defer stopCPU()
	defer func() {
		if err := profiling.WriteHeap(*memprofile); err != nil {
			fmt.Fprintln(os.Stderr, "eaexp:", err)
		}
	}()

	spec := experiment.DefaultSpec()
	spec.Seed = *seed
	spec.PMax = *pmax
	spec.Predictor = *pred
	spec.PredictorAlpha = *alpha
	if *reps > 0 {
		spec.Replications = *reps
	}

	// Observability sinks, shared by every run of the invocation.
	var probes []obs.Probe
	var eventsW *obs.JSONLWriter
	if *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		if err != nil {
			return fmt.Errorf("eaexp: %w", err)
		}
		defer f.Close()
		eventsW = obs.NewJSONLWriter(f)
		probes = append(probes, eventsW)
		defer func() {
			if err := eventsW.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "eaexp:", err)
			}
		}()
	}
	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
		probes = append(probes, obs.NewMetricsProbe(reg))
		spec.Metrics = reg
		defer func() {
			f, err := os.Create(*metricsOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "eaexp:", err)
				return
			}
			err = reg.WritePrometheus(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "eaexp:", err)
			}
		}()
	}
	var validator *eventValidator
	if *validateEvents {
		validator = &eventValidator{}
		probes = append(probes, validator)
	}
	spec.Probe = obs.Multi(probes...)

	if *manifestOut != "" {
		mcfg := struct {
			Exp          string          `json:"exp"`
			Spec         experiment.Spec `json:"spec"`
			Intensities  string          `json:"intensities,omitempty"`
			FaultSeed    uint64          `json:"fault_seed,omitempty"`
			Capacity     float64         `json:"capacity,omitempty"`
			Policies     string          `json:"policies,omitempty"`
			SlackFactors string          `json:"slack_factors,omitempty"`
			SleepPresets string          `json:"sleep_presets,omitempty"`
		}{Exp: *exp, Spec: spec}
		switch *exp {
		case "robustness":
			mcfg.Intensities = *intensities
			mcfg.FaultSeed = *faultSeed
			mcfg.Capacity = *capacity
			mcfg.Policies = *policies
		case "slack":
			mcfg.SlackFactors = *slackFactors
		case "sleep":
			mcfg.SleepPresets = *sleepPresets
		}
		m, err := obs.NewManifest("eaexp", *exp,
			map[string]uint64{"seed": *seed, "fault-seed": *faultSeed}, mcfg)
		if err == nil {
			err = m.WriteFile(*manifestOut)
		}
		if err != nil {
			return fmt.Errorf("eaexp: %w", err)
		}
	}

	stopProgress := startProgress(*quiet)
	defer stopProgress()

	switch *exp {
	case "all", "fig5", "fig6", "fig7", "fig8", "fig9", "table1",
		"sens-levels", "sens-pmax", "sens-tasks", "sens-predictors",
		"overhead", "convergence", "robustness", "slack", "sleep":
	default:
		return usageError{fmt.Errorf("eaexp: unknown experiment %q", *exp)}
	}

	// runExp runs f when -exp names it or, for the paper's artifacts, when
	// it is all; the first error stops the rest and is returned.
	var runErr error
	runExp := func(name string, inAll bool, f func() error) {
		if runErr != nil || *exp != name && !(inAll && *exp == "all") {
			return
		}
		if err := f(); err != nil {
			runErr = fmt.Errorf("eaexp %s: %w", name, err)
		}
	}

	runExp("fig5", true, func() error { return fig5(stdout, spec, *csv, *width) })
	runExp("fig6", true, func() error { return remaining(stdout, spec, 0.4, "fig6", *csv, *width) })
	runExp("fig7", true, func() error { return remaining(stdout, spec, 0.8, "fig7", *csv, *width) })
	runExp("fig8", true, func() error { return missRate(stdout, spec, 0.4, "fig8", *csv, *width) })
	runExp("fig9", true, func() error { return missRate(stdout, spec, 0.8, "fig9", *csv, *width) })
	runExp("table1", true, func() error { return table1(stdout, spec, *csv) })

	// Sensitivity sweeps (beyond the paper; not part of -exp all).
	runOnly := func(name string, f func() error) { runExp(name, false, f) }
	runOnly("sens-levels", func() error {
		res, err := experiment.LevelCountSweep(spec, []float64{1, 2, 3, 5, 8, 12}, []string{"lsa", "ea-dvfs"})
		if err != nil {
			return err
		}
		return printSweep(stdout, res, *csv)
	})
	runOnly("sens-pmax", func() error {
		res, err := experiment.PMaxSweep(spec, []float64{4, 6, 8, 10, 12, 16}, []string{"lsa", "ea-dvfs"})
		if err != nil {
			return err
		}
		return printSweep(stdout, res, *csv)
	})
	runOnly("sens-tasks", func() error {
		res, err := experiment.TaskCountSweep(spec, []float64{1, 2, 5, 10, 20}, []string{"lsa", "ea-dvfs"})
		if err != nil {
			return err
		}
		return printSweep(stdout, res, *csv)
	})
	runOnly("overhead", func() error {
		sp := spec
		sp.Capacities = []float64{300}
		policies := []string{"edf", "static-dvfs", "lsa", "ea-dvfs"}
		res, err := experiment.Overhead(sp, policies)
		if err != nil {
			return err
		}
		header := []string{"policy", "missrate", "response", "switches", "preemptions", "decisions", "events"}
		var rows [][]string
		for _, name := range res.Policies {
			rows = append(rows, []string{
				name,
				fmt.Sprintf("%.4f", res.MissRate[name]),
				fmt.Sprintf("%.2f", res.ResponseMean[name]),
				fmt.Sprintf("%.0f", res.Switches[name]),
				fmt.Sprintf("%.0f", res.Preemptions[name]),
				fmt.Sprintf("%.0f", res.Decisions[name]),
				fmt.Sprintf("%.0f", res.Events[name]),
			})
		}
		fmt.Fprintln(stdout, "Scheduling overhead per 10,000-unit run (mean over replications, capacity 300)")
		fmt.Fprintln(stdout, plot.Table(header, rows))
		return nil
	})
	runOnly("convergence", func() error {
		sp := spec
		sp.Capacities = []float64{300}
		counts := []int{5, 10, 20, 40}
		if sp.Replications < 40 {
			counts = []int{2, 5, sp.Replications}
		}
		header := []string{"replications", "miss rate", "stderr"}
		for _, policy := range []string{"lsa", "ea-dvfs"} {
			res, err := experiment.Convergence(sp, policy, counts)
			if err != nil {
				return err
			}
			var rows [][]string
			for i, n := range res.Counts {
				rows = append(rows, []string{
					fmt.Sprintf("%d", n),
					fmt.Sprintf("%.4f", res.Rate[i]),
					fmt.Sprintf("%.4f", res.StdErr[i]),
				})
			}
			fmt.Fprintf(stdout, "Convergence of the %s miss-rate estimate (capacity 300)\n", policy)
			fmt.Fprintln(stdout, plot.Table(header, rows))
		}
		return nil
	})
	runOnly("robustness", func() error {
		xs, err := parseFloatList(*intensities)
		if err != nil {
			return err
		}
		rs := experiment.RobustnessSpec{
			Base:        spec,
			Policies:    strings.Split(*policies, ","),
			Intensities: xs,
			FaultSeed:   *faultSeed,
			Capacity:    *capacity,
		}
		res, err := experiment.RobustnessSweep(rs)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, res.Summary())
		var b strings.Builder
		b.WriteString("intensity")
		for _, p := range rs.Policies {
			fmt.Fprintf(&b, ",%s", p)
		}
		b.WriteByte('\n')
		for i, x := range res.Intensities {
			fmt.Fprintf(&b, "%g", x)
			for _, p := range rs.Policies {
				fmt.Fprintf(&b, ",%g", res.MissRates[p][i])
			}
			b.WriteByte('\n')
		}
		return writeCSV(*csv, "robustness.csv", b.String())
	})
	runOnly("slack", func() error {
		factors, err := parseFloatList(*slackFactors)
		if err != nil {
			return err
		}
		res, err := experiment.SlackFactorSweep(spec, factors,
			[]string{"lsa", "ea-dvfs", "lsa-reclaim", "ea-dvfs-reclaim"})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "Slack-factor sweep: stochastic-periodic workload, reclaiming vs plain policies")
		return printSweep(stdout, res, *csv)
	})
	runOnly("sleep", func() error {
		sp := spec
		// The ablation compares presets per point; give it slack to sleep
		// into so the states are actually entered.
		sp.TaskModel = "stochastic-periodic"
		res, err := experiment.SleepStateSweep(sp,
			strings.Split(*sleepPresets, ","),
			[]string{"lsa", "ea-dvfs"})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "Sleep-state ablation: DPM presets under a stochastic workload")
		return printSweep(stdout, res, *csv)
	})
	runOnly("sens-predictors", func() error {
		// Every registered predictor, enumerated rather than hardcoded: a
		// freshly registered predictor joins the sensitivity sweep for free.
		res, err := experiment.PredictorSweep(spec,
			registry.PredictorNames(),
			[]string{"lsa", "ea-dvfs"})
		if err != nil {
			return err
		}
		return printSweep(stdout, res, *csv)
	})

	if runErr != nil {
		return runErr
	}
	if validator != nil {
		if err := validator.report(stdout); err != nil {
			return fmt.Errorf("eaexp: validate-events: %w", err)
		}
	}
	return nil
}

func parseFloatList(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("eaexp: bad float %q: %w", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func printSweep(w io.Writer, res *experiment.SensitivityResult, csvDir string) error {
	header := append([]string{res.Param}, res.Policies...)
	var rows [][]string
	var csvB strings.Builder
	csvB.WriteString(strings.Join(header, ","))
	csvB.WriteByte('\n')
	for i := range res.Points {
		row := []string{res.PointLabel(i)}
		csvB.WriteString(res.PointLabel(i))
		for _, name := range res.Policies {
			row = append(row, fmt.Sprintf("%.4f", res.Rates[name][i]))
			fmt.Fprintf(&csvB, ",%g", res.Rates[name][i])
		}
		rows = append(rows, row)
		csvB.WriteByte('\n')
	}
	fmt.Fprintf(w, "Sensitivity sweep: deadline miss rate vs %s\n", res.Param)
	fmt.Fprintln(w, plot.Table(header, rows))
	return writeCSV(csvDir, "sweep.csv", csvB.String())
}

func writeCSV(dir, name, content string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644)
}

func seriesLine(name string, s *metrics.Series) plot.Line {
	l := plot.Line{Name: name}
	for i, v := range s.Values {
		l.X = append(l.X, s.TimeAt(i))
		l.Y = append(l.Y, v)
	}
	return l
}

func fig5(w io.Writer, spec experiment.Spec, csvDir string, width int) error {
	s := experiment.SourceTrace(spec.Seed, int(spec.Horizon))
	line := seriesLine("PS(t)", s)
	fmt.Fprintln(w, plot.Chart("Figure 5: energy source behavior (eq. 13 sample path)",
		width, 16, plot.Downsampled(line, width)))
	return writeCSV(csvDir, "fig5.csv", plot.CSV("t", line))
}

func remaining(w io.Writer, spec experiment.Spec, u float64, name, csvDir string, width int) error {
	spec.Utilization = u
	m, err := experiment.RunSweep(context.Background(), "remaining", spec, []string{"lsa", "ea-dvfs"})
	if err != nil {
		return err
	}
	res := m.Remaining
	lines := []plot.Line{
		seriesLine("ea-dvfs", res.Curves["ea-dvfs"]),
		seriesLine("lsa", res.Curves["lsa"]),
	}
	title := fmt.Sprintf("Figure %s: normalized remaining energy, U = %.1f (%d replications x %d capacities)",
		strings.TrimPrefix(name, "fig"), u, spec.Replications, len(spec.Capacities))
	down := make([]plot.Line, len(lines))
	for i, l := range lines {
		down[i] = plot.Downsampled(l, width)
	}
	fmt.Fprintln(w, plot.Chart(title, width, 16, down...))
	return writeCSV(csvDir, name+".csv", plot.CSV("t", lines...))
}

// FigureCapacities extends the paper's sweep into the small-capacity
// region where the Figures 8–9 x axis starts.
func figureCapacities() []float64 {
	return []float64{50, 100, 200, 300, 500, 1000, 2000, 3000, 4000, 5000}
}

func missRate(w io.Writer, spec experiment.Spec, u float64, name, csvDir string, width int) error {
	spec.Utilization = u
	spec.Capacities = figureCapacities()
	res, err := experiment.MissRateSweep(spec, []string{"lsa", "ea-dvfs"})
	if err != nil {
		return err
	}
	var lines []plot.Line
	for _, pn := range []string{"lsa", "ea-dvfs"} {
		l := plot.Line{Name: pn}
		for i := range res.Capacities {
			l.X = append(l.X, res.NormalizedCapacity(i))
			l.Y = append(l.Y, res.Rates[pn][i])
		}
		lines = append(lines, l)
	}
	title := fmt.Sprintf("Figure %s: deadline miss rate vs normalized storage capacity, U = %.1f (%d replications)",
		strings.TrimPrefix(name, "fig"), u, spec.Replications)
	fmt.Fprintln(w, plot.Chart(title, width, 14, lines...))

	header := []string{"capacity", "normalized", "lsa", "ea-dvfs", "reduction"}
	var rows [][]string
	for i, c := range res.Capacities {
		lsa := res.Rates["lsa"][i]
		ea := res.Rates["ea-dvfs"][i]
		red := "-"
		if lsa > 0 {
			red = fmt.Sprintf("%.0f%%", 100*(1-ea/lsa))
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", c),
			fmt.Sprintf("%.2f", res.NormalizedCapacity(i)),
			fmt.Sprintf("%.4f", lsa),
			fmt.Sprintf("%.4f", ea),
			red,
		})
	}
	fmt.Fprintln(w, plot.Table(header, rows))
	return writeCSV(csvDir, name+".csv", plot.CSV("normalized_capacity", lines...))
}

func table1(w io.Writer, spec experiment.Spec, csvDir string) error {
	utils := []float64{0.2, 0.4, 0.6, 0.8}
	res, err := experiment.MinCapacity(spec, utils, []string{"lsa", "ea-dvfs"})
	if err != nil {
		return err
	}
	header := []string{"U", "Cmin(LSA)", "Cmin(EA-DVFS)", "ratio", "stderr"}
	var rows [][]string
	var csvB strings.Builder
	csvB.WriteString("u,cmin_lsa,cmin_eadvfs,ratio,stderr\n")
	for i, u := range res.Utilizations {
		rows = append(rows, []string{
			fmt.Sprintf("%.1f", u),
			fmt.Sprintf("%.0f", res.Mean["lsa"][i]),
			fmt.Sprintf("%.0f", res.Mean["ea-dvfs"][i]),
			fmt.Sprintf("%.2f", res.Ratio[i]),
			fmt.Sprintf("%.2f", res.RatioErr[i]),
		})
		fmt.Fprintf(&csvB, "%g,%g,%g,%g,%g\n", u,
			res.Mean["lsa"][i], res.Mean["ea-dvfs"][i], res.Ratio[i], res.RatioErr[i])
	}
	fmt.Fprintln(w, "Table 1: minimum storage capacity for zero deadline misses, Cmin-LSA / Cmin-EA-DVFS")
	fmt.Fprintln(w, plot.Table(header, rows))
	if res.Skipped > 0 {
		fmt.Fprintf(w, "(skipped %d replications with no zero-miss capacity in range)\n", res.Skipped)
	}
	return writeCSV(csvDir, "table1.csv", csvB.String())
}
