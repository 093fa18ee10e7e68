package sim

import (
	"math"
	"sync"

	"github.com/eadvfs/eadvfs/internal/fault"
	"github.com/eadvfs/eadvfs/internal/metrics"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/task"
)

// Arena is the reusable cross-run state of the engine: the deadline-check
// heap, the ready queue, the per-task stats table and the release-schedule
// buffers. One engine run churns through hundreds of jobs and deadline
// checks; an arena allocates their storage once and resets it per run,
// which is what turns a repeated workload — a capacity bisection, a sweep
// cell, a service worker slot — from ~800 allocations per run into ~20.
//
// The periodic release schedule is re-merged into the arena's buffers on
// every run (mergeReleases), so a run costs the same whether or not its
// task set matches the previous run's: there is no plan to cache or to
// miss.
//
// Reuse is strictly sequential: an arena serves one run at a time and is
// not safe for concurrent use. Run (the package function) draws arenas
// from an internal sync.Pool, which gives every concurrently executing
// worker — the experiment parallel runner's goroutines, the service's
// bounded pool slots — its own warm arena without coordination; an
// explicit Arena only pins that reuse to one caller.
//
// The contract the reset relies on: nothing retains engine-owned state
// past Run. Probes receive copied job fields rather than a *Job (the
// arena's jobs are overwritten by the next run), and Result.PerTask
// entries are freshly allocated per run precisely because callers do
// retain those.
type Arena struct {
	queue *task.ReadyQueue
	tasks *taskTable

	// The periodic release schedule of the current run: job values in
	// release order, pointers to them, and the merge's per-task cursors.
	jobs  []task.Job
	ptrs  []*task.Job
	heads []releaseHead

	eng engine
}

// NewArena returns an empty arena. The first Run populates its pools; an
// arena warms up in one run.
func NewArena() *Arena {
	return &Arena{
		queue: task.NewReadyQueue(),
		tasks: newTaskTable(),
	}
}

// arenaPool backs the package-level Run: one warm arena per P in the
// steady state, so every worker goroutine reuses run state without any
// explicit plumbing.
var arenaPool = sync.Pool{New: func() any { return NewArena() }}

// Run executes one simulation on this arena's pooled state. Semantics are
// exactly those of the package-level Run.
func (a *Arena) Run(cfg *Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	// Tracing rides the existing probe plumbing: a Probe that is also a
	// SpanSink receives wall-clock phase spans ("plan", "simulate") with
	// sim-time boundaries in the attributes, parented under whatever span
	// the probe carries (obs.TraceCarrier — the service's per-request
	// engine span). Tracing engages only when BOTH capabilities are
	// present: a sink to write to and a valid parent context proving a
	// trace is actually in progress. A sink without a trace (a bare
	// JSONLWriter probe recording a deterministic event stream) must not
	// have randomized span lines injected into it. A plain probe, or
	// none, costs two type assertions and no allocation: StartSpan on a
	// nil sink returns a nil *ActiveSpan whose methods are all no-ops.
	var trace obs.SpanSink
	var traceParent obs.SpanContext
	if cfg.Probe != nil {
		if ss, ok := cfg.Probe.(obs.SpanSink); ok {
			if parent := obs.SpanParentOf(cfg.Probe); parent.Valid() {
				trace = ss
				traceParent = parent
			}
		}
	}

	// Materialize the per-run fault set and interpose its wrappers on a
	// shallow copy, leaving the caller's Config untouched. Intensity 0
	// yields a nil set: every path below degrades to the exact fault-free
	// behaviour, bit for bit.
	faults, err := fault.New(cfg.Faults)
	if err != nil {
		return nil, err
	}
	if faults != nil {
		runCfg := *cfg
		runCfg.Source = faults.WrapSource(cfg.Source)
		runCfg.Store = faults.WrapStore(cfg.Store)
		runCfg.Predictor = faults.WrapPredictor(cfg.Predictor)
		cfg = &runCfg
	}

	// Reset the pooled state up front (not on exit): a panicking run can
	// never leave a stale arena behind, because the next run starts from a
	// clean slate regardless. The deadline heap keeps its backing array;
	// checks an aborted run left queued are cleared so no job is pinned.
	a.queue.Reset()
	a.tasks.reset()
	e := &a.eng
	checks := e.checks
	clear(checks)

	*e = engine{
		cfg:       cfg,
		queue:     a.queue,
		checks:    checks[:0],
		lastRunLv: -1,
		tasks:     a.tasks,
		faults:    faults,
		srcT:      math.NaN(),
		res: &Result{
			Policy:    cfg.Policy.Name(),
			LevelTime: make([]float64, cfg.CPU.Levels()),
		},
	}
	// The run-constant part of the policy's view; no policy writes it.
	e.ctx.Queue = a.queue
	e.ctx.CPU = cfg.CPU
	e.ctx.Predictor = cfg.Predictor
	e.ctx.Probe = cfg.Probe
	if cfg.CheckInvariants {
		e.inv = &invariantChecker{probe: cfg.Probe}
	}
	e.initialLevel = cfg.Store.Level()
	if cfg.Stochastic() {
		seed := cfg.ExecSeed
		if seed == 0 {
			seed = 1
		}
		e.execRNG.Seed(seed)
	}

	if cfg.RecordEnergy {
		n := int(math.Floor(cfg.Horizon)) + 1
		e.res.EnergySeries = metrics.NewSeries(0, 1, n)
		e.res.EnergySeries.Values[0] = cfg.Store.Level()
	}

	planSpan := obs.StartSpan(trace, "sim", "plan", traceParent)
	e.release = a.mergeReleases(cfg.Tasks, cfg.Horizon)
	e.cacheNextRelease()
	planSpan.SetInt("jobs", int64(len(e.release)))
	planSpan.SetFloat("horizon", cfg.Horizon)
	planSpan.End()

	// Unit-boundary chain: predictor observation + energy sampling.
	e.nextBoundary = math.Inf(1)
	if cfg.Horizon >= 1 {
		e.nextBoundary = 1
	}
	e.segTime = math.Inf(1)

	simSpan := obs.StartSpan(trace, "sim", "simulate", traceParent)
	simSpan.SetFloat("sim_start", 0)
	e.requestDecide(0)
	if err := e.dispatch(); err != nil {
		simSpan.SetAttr("error", err.Error())
		simSpan.End()
		return nil, err
	}

	// A StopAtFirstMiss run ends at the miss instant; everything below —
	// state integration, trace closure, fault windows, conservation — is
	// finalized there instead of the horizon, so the Result is an exact
	// prefix of the full run.
	end := cfg.Horizon
	if e.stopped {
		end = e.simNow
	}
	e.syncTo(end)
	e.closeSegment(end)

	e.faults.FinishAt(end)
	e.res.Degradation = e.faults.Counters()
	e.res.PerTask = e.tasks.table()
	e.res.Meters = cfg.Store.Meters()
	e.res.FinalLevel = cfg.Store.Level()
	e.res.Events = e.dispatched
	e.res.ConservationErr = cfg.Store.ConservationError(e.initialLevel)
	simSpan.SetFloat("sim_end", end)
	simSpan.SetInt("events", int64(e.dispatched))
	simSpan.End()
	if err := e.res.Miss.Check(); err != nil {
		if e.inv == nil {
			return nil, err
		}
		e.inv.record("miss-stats", end, "%v", err)
	}
	if e.inv != nil {
		e.inv.checkConservation(end, e.res.ConservationErr, e.initialLevel+e.res.Meters.Stored)
		if err := e.inv.err(); err != nil {
			return e.res, err
		}
	}
	return e.res, nil
}

// releaseHead is one task's cursor in the release merge: the arrival and
// sequence number of its next job.
type releaseHead struct {
	next   float64
	period float64
	id     int // task ID
	seq    int
	task   int // index into the task set
}

// before orders merge cursors by (arrival, task ID). Task IDs are unique
// (Config.Validate) and a task's own stream is increasing, so this yields
// ReleaseJobs' (arrival, task ID, seq) order exactly.
func (h *releaseHead) before(o *releaseHead) bool {
	return h.next < o.next || (h.next == o.next && h.id < o.id)
}

// mergeReleases refills the arena's buffers with the periodic release
// schedule — the jobs of task.ReleaseJobs, in its order — by a k-way merge
// of the tasks' release streams over a min-heap of cursors. Each stream
// steps exactly as ReleaseJobs does (a := Offset; a < horizon; a +=
// Period), so arrivals are bit-identical; no job is allocated and nothing
// is sorted. The returned slice and its jobs are overwritten by the next
// run.
func (a *Arena) mergeReleases(tasks []task.Task, horizon float64) []*task.Job {
	h := a.heads[:0]
	for i := range tasks {
		if t := &tasks[i]; t.Offset < horizon {
			h = append(h, releaseHead{next: t.Offset, period: t.Period, id: t.ID, task: i})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	jobs := a.jobs[:0]
	for len(h) > 0 {
		top := &h[0]
		jobs = append(jobs, tasks[top.task].Release(top.seq, top.next))
		top.seq++
		top.next += top.period
		if top.next >= horizon {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	ptrs := a.ptrs[:0]
	for i := range jobs {
		ptrs = append(ptrs, &jobs[i])
	}
	a.heads, a.jobs, a.ptrs = h, jobs, ptrs
	return ptrs
}

// siftDown restores the heap order of h below index i.
func siftDown(h []releaseHead, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
