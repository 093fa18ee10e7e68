package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"github.com/eadvfs/eadvfs/internal/metrics"
)

// Registry is an ordered collection of named metric series with Prometheus
// text-format exposition. Series are identified by their full exposition
// name — base name plus optional label set, e.g.
//
//	eadvfs_events_total{kind="arrival"}
//
// Series sharing a base name form one family and must share one metric
// type (HELP/TYPE are emitted per family). Registration is idempotent:
// asking for an existing series returns the same handle. All handles are
// safe for concurrent use; updates serialize on the registry's mutex.
type Registry struct {
	mu       sync.Mutex
	series   []*series
	byName   map[string]*series
	famType  map[string]string
	famHelp  map[string]string
	famOrder []string
}

type series struct {
	reg    *Registry
	base   string // family name
	labels string // label pairs without braces, "" when unlabeled
	typ    string // "counter", "gauge", "summary", "histogram"

	val float64 // counter/gauge value
	n   int     // summary observation count
	sum float64 // summary/histogram running sum
	h   *metrics.Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byName:  make(map[string]*series),
		famType: make(map[string]string),
		famHelp: make(map[string]string),
	}
}

// Labeled builds a full series name from a base name and key/value label
// pairs: Labeled("x_total", "kind", "arrival") → `x_total{kind="arrival"}`.
func Labeled(base string, kv ...string) string {
	if len(kv) == 0 {
		return base
	}
	if len(kv)%2 != 0 {
		panic("obs: Labeled needs key/value pairs")
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], strings.TrimSuffix(name[i+1:], "}")
	}
	return name, ""
}

func (r *Registry) register(name, help, typ string) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.byName[name]; ok {
		if s.typ != typ {
			panic(fmt.Sprintf("obs: series %s re-registered as %s (was %s)", name, typ, s.typ))
		}
		return s
	}
	base, labels := splitName(name)
	if t, ok := r.famType[base]; ok {
		if t != typ {
			panic(fmt.Sprintf("obs: family %s holds %s series, not %s", base, t, typ))
		}
	} else {
		r.famType[base] = typ
		r.famHelp[base] = help
		r.famOrder = append(r.famOrder, base)
	}
	s := &series{reg: r, base: base, labels: labels, typ: typ}
	r.byName[name] = s
	r.series = append(r.series, s)
	return s
}

// Counter registers (or retrieves) a monotonically increasing series.
func (r *Registry) Counter(name, help string) *Counter {
	return &Counter{s: r.register(name, help, "counter")}
}

// Gauge registers (or retrieves) a set-anywhere series.
func (r *Registry) Gauge(name, help string) *Gauge {
	return &Gauge{s: r.register(name, help, "gauge")}
}

// Summary registers (or retrieves) an observation series exposed as
// <name>_sum / <name>_count.
func (r *Registry) Summary(name, help string) *Summary {
	return &Summary{s: r.register(name, help, "summary")}
}

// Histogram registers (or retrieves) a fixed-width bucket histogram over
// [lo, hi) with n buckets (metrics.Histogram semantics: out-of-range
// observations clamp into the edge buckets).
func (r *Registry) Histogram(name, help string, lo, hi float64, n int) *HistogramMetric {
	s := r.register(name, help, "histogram")
	r.mu.Lock()
	if s.h == nil {
		s.h = metrics.NewHistogram(lo, hi, n)
	}
	r.mu.Unlock()
	return &HistogramMetric{s: s}
}

// Counter is a monotonically increasing metric.
type Counter struct{ s *series }

// Add increases the counter by d (d must be >= 0).
func (c *Counter) Add(d float64) {
	if d < 0 {
		panic("obs: counter decrease")
	}
	c.s.reg.mu.Lock()
	c.s.val += d
	c.s.reg.mu.Unlock()
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 {
	c.s.reg.mu.Lock()
	defer c.s.reg.mu.Unlock()
	return c.s.val
}

// Gauge is a metric that can be set to any value.
type Gauge struct{ s *series }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	g.s.reg.mu.Lock()
	g.s.val = v
	g.s.reg.mu.Unlock()
}

// Summary accumulates observations through a metrics.Welford.
type Summary struct{ s *series }

// Observe incorporates one observation.
func (s *Summary) Observe(v float64) {
	s.s.reg.mu.Lock()
	s.s.n++
	s.s.sum += v
	s.s.reg.mu.Unlock()
}

// HistogramMetric is a registry-attached metrics.Histogram.
type HistogramMetric struct{ s *series }

// Observe records one observation.
func (h *HistogramMetric) Observe(v float64) {
	h.s.reg.mu.Lock()
	h.s.h.Add(v)
	h.s.sum += v
	h.s.reg.mu.Unlock()
}

// withLabel appends a label pair to an existing (possibly empty) label set.
func withLabel(labels, pair string) string {
	if labels == "" {
		return pair
	}
	return labels + "," + pair
}

func seriesName(base, labels string) string {
	if labels == "" {
		return base
	}
	return base + "{" + labels + "}"
}

// WritePrometheus writes every registered series in Prometheus text
// exposition format (version 0.0.4), families in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, fam := range r.famOrder {
		if help := r.famHelp[fam]; help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam, help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, r.famType[fam]); err != nil {
			return err
		}
		for _, s := range r.series {
			if s.base != fam {
				continue
			}
			if err := s.write(w); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *series) write(w io.Writer) error {
	switch s.typ {
	case "counter", "gauge":
		_, err := fmt.Fprintf(w, "%s %g\n", seriesName(s.base, s.labels), s.val)
		return err
	case "summary":
		if _, err := fmt.Fprintf(w, "%s %g\n", seriesName(s.base+"_sum", s.labels), s.sum); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s %d\n", seriesName(s.base+"_count", s.labels), s.n)
		return err
	case "histogram":
		cum := 0
		n := len(s.h.Buckets)
		width := (s.h.Hi - s.h.Lo) / float64(n)
		for i, c := range s.h.Buckets {
			cum += c
			le := fmt.Sprintf(`le="%g"`, s.h.Lo+float64(float64(i+1)*width))
			if _, err := fmt.Fprintf(w, "%s %d\n",
				seriesName(s.base+"_bucket", withLabel(s.labels, le)), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %d\n",
			seriesName(s.base+"_bucket", withLabel(s.labels, `le="+Inf"`)), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %g\n", seriesName(s.base+"_sum", s.labels), s.sum); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s %d\n", seriesName(s.base+"_count", s.labels), s.h.Count())
		return err
	default:
		return fmt.Errorf("obs: unknown series type %q", s.typ)
	}
}

// MetricsProbe is a Probe that tallies engine events and decision audits
// into a Registry under the eadvfs_* namespace: event and decision
// counters by kind/reason, slack and energy summaries, and operating-point
// and speed histograms. Every known kind and reason is pre-registered so
// the exposition is complete (zero-valued) even for quiet runs.
type MetricsProbe struct {
	events    map[EventKind]*Counter
	decisions map[Reason]*Counter
	slack     *Summary
	stored    *Summary
	available *Summary
	level     *HistogramMetric
	speed     *HistogramMetric
}

// NewMetricsProbe registers the probe's series in reg and returns the
// probe. Safe to share across parallel runs.
func NewMetricsProbe(reg *Registry) *MetricsProbe {
	p := &MetricsProbe{
		events:    make(map[EventKind]*Counter, 8),
		decisions: make(map[Reason]*Counter, 8),
	}
	for _, k := range KnownEventKinds() {
		p.events[k] = reg.Counter(Labeled("eadvfs_events_total", "kind", string(k)),
			"engine events by kind")
	}
	for _, r := range KnownReasons() {
		p.decisions[r] = reg.Counter(Labeled("eadvfs_decisions_total", "reason", string(r)),
			"scheduler decision audits by reason code")
	}
	p.slack = reg.Summary("eadvfs_decision_slack", "slack (deadline - now) at decision points")
	p.stored = reg.Summary("eadvfs_decision_stored", "stored energy EC(now) at decision points")
	p.available = reg.Summary("eadvfs_decision_available", "available energy EC + ES at decision points")
	p.level = reg.Histogram("eadvfs_decision_level", "chosen operating point of run decisions", 0, 16, 16)
	p.speed = reg.Histogram("eadvfs_decision_speed", "normalized speed of run decisions", 0, 1.1, 11)
	return p
}

// OnEvent implements Probe.
func (p *MetricsProbe) OnEvent(ev Event) {
	if c, ok := p.events[ev.Kind]; ok {
		c.Inc()
	}
}

// OnDecision implements Probe.
func (p *MetricsProbe) OnDecision(d DecisionRecord) {
	if c, ok := p.decisions[d.Reason]; ok {
		c.Inc()
	}
	p.slack.Observe(d.Slack)
	p.stored.Observe(d.Stored)
	p.available.Observe(d.Available)
	if d.Level >= 0 {
		p.level.Observe(float64(d.Level))
		p.speed.Observe(d.Speed)
	}
}

// RunOutcome is one simulation run's aggregate outcome as the
// eadvfs_run_* series record it. The experiment harness fills it from a
// sim.Result, the facade's callers (easerve, easim) from an
// eadvfs.Result, so dashboards work on either source.
type RunOutcome struct {
	Released, Finished, Missed    int
	MissRate                      float64
	BusyTime, IdleTime, StallTime float64
	CPUEnergy                     float64
	Degraded                      bool // any fault-induced degradation
}

// RecordRun tallies one run's outcome under the eadvfs_run_* namespace:
// job outcomes, the busy/idle/stall time split, delivered CPU energy,
// and a per-run miss-rate summary. Counters accumulate across runs, so
// after a sweep the registry holds the sweep totals.
func (r *Registry) RecordRun(o RunOutcome) {
	r.Counter("eadvfs_runs_total", "completed simulation runs").Inc()
	const jobsHelp = "jobs by outcome across runs"
	r.Counter(Labeled("eadvfs_run_jobs_total", "outcome", "released"), jobsHelp).Add(float64(o.Released))
	r.Counter(Labeled("eadvfs_run_jobs_total", "outcome", "finished"), jobsHelp).Add(float64(o.Finished))
	r.Counter(Labeled("eadvfs_run_jobs_total", "outcome", "missed"), jobsHelp).Add(float64(o.Missed))
	const timeHelp = "simulated time by processor mode across runs"
	r.Counter(Labeled("eadvfs_run_time_total", "mode", "busy"), timeHelp).Add(o.BusyTime)
	r.Counter(Labeled("eadvfs_run_time_total", "mode", "idle"), timeHelp).Add(o.IdleTime)
	r.Counter(Labeled("eadvfs_run_time_total", "mode", "stall"), timeHelp).Add(o.StallTime)
	r.Counter("eadvfs_run_cpu_energy_total", "energy delivered to the processor across runs").Add(o.CPUEnergy)
	r.Summary("eadvfs_run_miss_rate", "per-run deadline miss rate").Observe(o.MissRate)
	if o.Degraded {
		r.Counter("eadvfs_run_degraded_total", "runs with any fault-induced degradation").Inc()
	}
}
