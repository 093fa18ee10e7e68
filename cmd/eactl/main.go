// Command eactl coordinates evaluation sweeps over a fleet of easerve
// workers (internal/fabric): the sweep is split into disjoint shards,
// fanned out over /v1/sweep with retries, hedging and per-worker circuit
// breaking, and merged bit-reproducibly — the output is byte-identical to
// running the same sweep on one machine.
//
// Usage:
//
//	eactl -workers http://h1:8080,http://h2:8080 [-kind missrate]
//	      [-policies lsa,ea-dvfs] [-utilization 0.4] [-caps 50,...]
//	      [-replications N] [-seed 1] [-horizon 10000]
//	      [-shards-per-worker 2] [-max-attempts 4] [-timeout 120s]
//	      [-hedge-after 2s] [-allow-partial] [-o out.json]
//	      [-metrics-out metrics.prom] [-trace-out trace.jsonl]
//	      [-capabilities] [-verbose] [-version]
//
// With -local the sweep runs in-process instead of on a fleet and writes
// the identical bytes — the single-node reference a distributed run can
// be compared against (CI does exactly that with cmp).
//
// The result JSON is the sweep aggregate (experiment.MissRateResult or
// experiment.RemainingEnergyResult); a fleet-health summary — shards,
// attempts, retries, hedges, lost shards — goes to stderr.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/eadvfs/eadvfs/internal/buildinfo"
	"github.com/eadvfs/eadvfs/internal/experiment"
	"github.com/eadvfs/eadvfs/internal/fabric"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/service"
)

func main() {
	var (
		workersFlag = flag.String("workers", "", "comma-separated easerve base URLs (required unless -local)")
		local       = flag.Bool("local", false, "run the sweep in-process (single-node reference output)")
		kind        = flag.String("kind", "missrate", "sweep kind: missrate or remaining")
		policies    = flag.String("policies", "lsa,ea-dvfs", "comma-separated policies to compare")

		horizon = flag.Float64("horizon", 0, "simulated time units (0 = paper default)")
		tasks   = flag.Int("tasks", 0, "periodic tasks per set (0 = paper default)")
		util    = flag.Float64("utilization", 0, "target utilization at fmax (0 = paper default)")
		caps    = flag.String("caps", "", "comma-separated storage capacities (empty = paper default)")
		reps    = flag.Int("replications", 0, "task sets per point (0 = paper default)")
		seed    = flag.Uint64("seed", 0, "master seed (0 = paper default)")
		pred    = flag.String("predictor", "", "harvest predictor (empty = paper default)")
		alpha   = flag.Float64("alpha", 0, "predictor smoothing override in (0, 1]")
		pmax    = flag.Float64("pmax", 0, "processor maximum power (0 = paper default)")

		shardsPerWorker = flag.Int("shards-per-worker", 2, "plan density: shards = workers x this")
		maxAttempts     = flag.Int("max-attempts", 4, "tries per shard before giving up")
		timeout         = flag.Duration("timeout", 120*time.Second, "per-attempt request budget")
		hedgeAfter      = flag.Duration("hedge-after", 2*time.Second, "race a second worker after this straggler delay (negative disables)")
		allowPartial    = flag.Bool("allow-partial", false, "degrade to a partial aggregate when shards exhaust retries")

		out          = flag.String("o", "", "write the result JSON here (default stdout)")
		metricsOut   = flag.String("metrics-out", "", "write fabric metrics (Prometheus text) here")
		traceOut     = flag.String("trace-out", "", "write the sweep's spans (schema v1.1 JSONL) here")
		capabilities = flag.Bool("capabilities", false, "print each worker's GET /v1/capabilities document and exit")
		verbose      = flag.Bool("verbose", false, "log retries, hedges and breaker events to stderr")
		version      = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Line("eactl"))
		return
	}
	if *capabilities {
		if err := printCapabilities(os.Stdout, splitList(*workersFlag), *timeout); err != nil {
			fatal(err)
		}
		return
	}

	spec := experiment.Spec{
		NumTasks:       *tasks,
		Utilization:    *util,
		Replications:   *reps,
		Seed:           *seed,
		Predictor:      *pred,
		PredictorAlpha: *alpha,
		PMax:           *pmax,
	}
	spec.Horizon = *horizon
	if *caps != "" {
		cs, err := parseFloats(*caps)
		if err != nil {
			fatal(err)
		}
		spec.Capacities = cs
	}
	spec = service.NormalizeSpec(spec)
	policyList := splitList(*policies)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	payload, err := runSweep(ctx, *local, *workersFlag, *kind, spec, policyList, fleetConfig{
		shardsPerWorker: *shardsPerWorker,
		maxAttempts:     *maxAttempts,
		timeout:         *timeout,
		hedgeAfter:      *hedgeAfter,
		allowPartial:    *allowPartial,
		verbose:         *verbose,
		metricsOut:      *metricsOut,
		traceOut:        *traceOut,
	})
	if err != nil {
		fatal(err)
	}
	if err := writeOut(*out, payload); err != nil {
		fatal(err)
	}
}

type fleetConfig struct {
	shardsPerWorker int
	maxAttempts     int
	timeout         time.Duration
	hedgeAfter      time.Duration
	allowPartial    bool
	verbose         bool
	metricsOut      string
	traceOut        string
}

// runSweep produces the result JSON (with trailing newline) either
// in-process (-local) or via the fabric coordinator. Both paths merge
// shard results with experiment.MergeShards — the local path merges its
// one whole-grid shard — and marshal the identical aggregate type, which
// is what makes the outputs byte-comparable.
func runSweep(ctx context.Context, local bool, workersFlag, kind string, spec experiment.Spec, policies []string, fc fleetConfig) ([]byte, error) {
	var merged *experiment.MergedSweep
	if local {
		// A local run still gets a root span when tracing is requested —
		// a one-node tree, but the same JSONL format as a fleet trace.
		var recorder *obs.Recorder
		var root *obs.ActiveSpan
		if fc.traceOut != "" {
			recorder = obs.NewRecorder()
			root = obs.StartSpan(recorder, "eactl", "sweep", obs.SpanContext{})
			root.SetAttr("kind", kind)
			root.SetAttr("mode", "local")
			spec.Spans = parentedSink{sink: recorder, parent: root.Context()}
		}
		var err error
		merged, err = experiment.RunSweep(ctx, kind, spec, policies)
		root.End()
		if err != nil {
			return nil, err
		}
		if fc.traceOut != "" {
			if terr := writeTraceJSONL(fc.traceOut, recorder.Spans()); terr != nil {
				return nil, terr
			}
		}
	} else {
		workers := splitList(workersFlag)
		if len(workers) == 0 {
			return nil, fmt.Errorf("-workers is required (or use -local)")
		}
		// Tracing is always on for fleet runs: the recorder is cheap
		// relative to network sweeps, and the stitched tree is the only
		// way to see where a slow sweep actually spent its time.
		recorder := obs.NewRecorder()
		opts := fabric.Options{
			Workers:         workers,
			ShardsPerWorker: fc.shardsPerWorker,
			MaxAttempts:     fc.maxAttempts,
			RequestTimeout:  fc.timeout,
			HedgeAfter:      fc.hedgeAfter,
			AllowPartial:    fc.allowPartial,
			Trace:           recorder,
		}
		if fc.verbose {
			opts.Logf = func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "eactl: "+format+"\n", args...)
			}
		}
		c, err := fabric.New(opts)
		if err != nil {
			return nil, err
		}
		res, err := c.RunSweep(ctx, kind, spec, policies)
		if fc.metricsOut != "" {
			if merr := writeMetrics(fc.metricsOut, c.Registry()); merr != nil && err == nil {
				err = merr
			}
		}
		if err != nil {
			return nil, err
		}
		printSummary(os.Stderr, res)
		printTraceSummary(os.Stderr, recorder.Spans())
		if fc.traceOut != "" {
			if terr := writeTraceJSONL(fc.traceOut, recorder.Spans()); terr != nil {
				return nil, terr
			}
		}
		merged = res.Merged
	}
	raw, err := json.Marshal(merged.Result())
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}

// parentedSink forwards spans to a sink while advertising a fixed parent
// context, so experiment phase spans nest under the local root span.
type parentedSink struct {
	sink   obs.SpanSink
	parent obs.SpanContext
}

func (p parentedSink) OnSpan(sp obs.Span)           { p.sink.OnSpan(sp) }
func (p parentedSink) TraceParent() obs.SpanContext { return p.parent }

// printSummary writes the fleet-health accounting to w.
func printSummary(w io.Writer, res *fabric.SweepResult) {
	attempts, hedged := 0, 0
	for _, sh := range res.Shards {
		attempts += sh.Attempts
		if sh.Hedged {
			hedged++
		}
	}
	fmt.Fprintf(w, "eactl: %d shards, %d attempts, %d hedged, %d incomplete\n",
		len(res.Shards), attempts, hedged, res.Incomplete)
	if res.Incomplete > 0 {
		fmt.Fprintf(w, "eactl: PARTIAL result: %d shards lost, %d grid cells missing\n",
			res.Incomplete, res.Merged.MissingCells)
		for _, sh := range res.Shards {
			if sh.Err != nil {
				fmt.Fprintf(w, "eactl:   shard %d: %v\n", sh.Shard.Index, sh.Err)
			}
		}
	}
}

func writeMetrics(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = reg.WritePrometheus(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printCapabilities fetches and prints each worker's capability document
// (GET /v1/capabilities): what policies, sources, predictors and task
// models — with which parameter schemas — each build supports. Identical
// builds serve byte-identical documents, so the output doubles as a
// fleet-homogeneity check before planning a sweep.
func printCapabilities(w io.Writer, workers []string, timeout time.Duration) error {
	if len(workers) == 0 {
		return fmt.Errorf("-capabilities needs -workers")
	}
	client := &http.Client{Timeout: timeout}
	for _, base := range workers {
		resp, err := client.Get(strings.TrimRight(base, "/") + "/v1/capabilities")
		if err != nil {
			return fmt.Errorf("worker %s: %w", base, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("worker %s: %w", base, err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("worker %s: %s: %s", base, resp.Status, strings.TrimSpace(string(body)))
		}
		fmt.Fprintf(w, "%s\t%s", base, body)
	}
	return nil
}

func writeOut(path string, payload []byte) error {
	if path == "" {
		_, err := os.Stdout.Write(payload)
		return err
	}
	return os.WriteFile(path, payload, 0o644)
}

// splitList splits a comma-separated flag, dropping empty elements.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range splitList(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "eactl:", err)
	os.Exit(1)
}
