// Package sim couples the substrates — energy source, predictor, storage,
// DVFS processor, task workload — under a scheduling policy and runs the
// discrete-event simulation the paper's evaluation is built on (§5).
//
// Between events, the storage level evolves linearly (the source is
// piecewise-constant per unit interval and the processor draws constant
// power per operating point), so the engine advances state exactly: no
// fixed-step numerical integration, no drift. Every behavioural change —
// job arrival, completion, deadline expiry, storage depletion, a policy's
// s1/s2 instants, unit boundaries — is an event.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/fault"
	"github.com/eadvfs/eadvfs/internal/metrics"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/rng"
	"github.com/eadvfs/eadvfs/internal/sched"
	"github.com/eadvfs/eadvfs/internal/storage"
	"github.com/eadvfs/eadvfs/internal/task"
)

// Event dispatch priorities at equal timestamps. The order encodes the
// semantics: the predictor observes before anyone decides; a job finishing
// exactly at its deadline counts as meeting it (completion before deadline
// check); decisions always run last, over fully updated state.
const (
	prioBoundary = iota // unit boundary: observe predictor, sample energy
	prioSegment         // end of a run/idle segment (completion, empty, until)
	prioArrival         // job release
	prioDeadline        // deadline miss check
	prioDecide          // policy decision
)

// workEps is the remaining-work tolerance below which a job counts as
// complete (absorbs float rounding in completion-time arithmetic).
const workEps = 1e-9

// stallEps is the storage-sustain time below which an execution request is
// treated as unservable (§4.2: with no available energy the system stops).
const stallEps = 1e-9

// Mode is what the processor is doing over a segment.
type Mode int

// Processor activity modes.
const (
	ModeIdle  Mode = iota // no job selected; harvesting only
	ModeRun               // executing a job at some operating point
	ModeStall             // job selected but storage exhausted (§4.2)
	ModeSleep             // parked in a DPM sleep state (cpu.SleepState)
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeIdle:
		return "idle"
	case ModeRun:
		return "run"
	case ModeStall:
		return "stall"
	case ModeSleep:
		return "sleep"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config describes one simulation run. Store and Predictor are stateful
// and consumed by the run; construct fresh ones per run.
type Config struct {
	Horizon   float64
	Tasks     []task.Task
	Source    energy.Source
	Predictor energy.Predictor
	Store     storage.Reservoir
	CPU       *cpu.Processor
	Policy    sched.Policy

	// StopAtFirstMiss ends the run immediately after the first deadline
	// miss is tallied, finalizing all accounting at the miss instant
	// instead of the horizon. The Result is then a valid prefix of the
	// full run — in particular Miss.Missed > 0 if and only if the full
	// run would have missed at least one deadline, which is the only
	// question a zero-miss feasibility probe (capacity bisection,
	// experiment.MinCapacitySearcher) asks. A run with no misses is
	// unaffected, bit for bit.
	StopAtFirstMiss bool

	// ExecSeed seeds the per-job actual-work draws of tasks that carry a
	// task.ExecSpec (default 1). Draws are per-(task, seq), so they do
	// not depend on event ordering.
	ExecSeed uint64

	// RecordEnergy samples the storage level once per time unit into
	// Result.EnergySeries (the raw material of Figures 6–7).
	RecordEnergy bool

	// Probe, when non-nil, receives structured observability events
	// (internal/obs): arrivals, dispatches, segments, completions, misses,
	// stalls, fault activations and invariant violations — plus the
	// policy's decision-audit records via sched.Context. It is the run's
	// only observation hook: the Gantt/CSV recorder (internal/trace), the
	// JSONL and metrics sinks and the flight recorder all consume it, and
	// obs.Multi attaches several at once. Every emission is
	// nil-guarded at the call site, so a run without a probe pays nothing
	// (enforced by internal/bench TestBaseline's allocation bound against
	// BENCH_baseline.json).
	Probe obs.Probe

	// Faults, at a positive intensity, injects the declared substrate
	// faults into the run: the source, store and predictor are wrapped,
	// DVFS decisions pass through the stuck-frequency fault, and jobs may
	// overrun their WCET. The engine degrades gracefully — stalls, misses
	// and clamped operating points are tallied in Result.Degradation,
	// never fatal. A fresh fault.Set is materialized per run, so the
	// Config stays reusable. The zero Spec (intensity 0) injects nothing.
	Faults fault.Spec

	// CheckInvariants enables the runtime self-checker: store bounds
	// after every flow, energy conservation at unit boundaries and run
	// end, event-clock monotonicity and miss-tally consistency. When a
	// run breaches an invariant, Run returns the Result together with a
	// *InvariantError describing every recorded violation.
	CheckInvariants bool

	// MaxEvents aborts the run with a *EventBudgetError after this many
	// dispatched events (0 = unlimited) — a watchdog that turns a runaway
	// decision loop into a diagnosable error instead of a hung worker.
	MaxEvents uint64

	// Context, when non-nil, cancels the run cooperatively: the engine
	// polls it every 256 dispatched events and aborts with an error
	// wrapping ctx.Err() (and a nil Result). This is how a simulation
	// service propagates an abandoned request or a per-request timeout
	// into a running engine; nil (the default) costs nothing.
	Context context.Context
}

// Validate checks the configuration for structural errors.
func (c *Config) Validate() error {
	switch {
	case c.Horizon <= 0 || math.IsNaN(c.Horizon) || math.IsInf(c.Horizon, 0):
		return fmt.Errorf("sim: invalid horizon %v", c.Horizon)
	case c.Source == nil:
		return errors.New("sim: nil energy source")
	case c.Predictor == nil:
		return errors.New("sim: nil predictor")
	case c.Store == nil:
		return errors.New("sim: nil store")
	case c.CPU == nil:
		return errors.New("sim: nil processor")
	case c.Policy == nil:
		return errors.New("sim: nil policy")
	}
	for i, t := range c.Tasks {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		for _, u := range c.Tasks[:i] {
			if u.ID == t.ID {
				return fmt.Errorf("sim: duplicate task ID %d", t.ID)
			}
		}
	}
	return nil
}

// Stochastic reports whether any job of this run draws an actual
// execution time below its WCET — any task carrying a task.ExecSpec.
// When false, the engines skip the exec RNG entirely: the WCET-exact
// path stays allocation-free and bit-identical to the paper's model.
func (c *Config) Stochastic() bool {
	for i := range c.Tasks {
		if c.Tasks[i].Exec != nil {
			return true
		}
	}
	return false
}

// Result is the outcome of one run.
type Result struct {
	Policy string
	Miss   metrics.MissStats

	// EnergySeries holds EC(t) sampled at t = 0, 1, …, floor(Horizon)
	// when Config.RecordEnergy is set; nil otherwise.
	EnergySeries *metrics.Series

	Meters     storage.Meters
	FinalLevel float64

	BusyTime  float64   // time executing
	IdleTime  float64   // time idle by choice (laziness or no work)
	StallTime float64   // time blocked on an empty store (§4.2)
	LevelTime []float64 // execution time per operating point
	CPUEnergy float64   // total energy delivered to the processor
	Switches  int       // operating-point changes between run segments

	// Preemptions counts a running, unfinished job being displaced by a
	// different job; Decisions counts decision points, including quiet
	// unit boundaries where the engine answers without calling the policy
	// (see engine). Together they measure a policy's runtime overhead.
	Preemptions int
	Decisions   int

	// PerTask breaks releases, completions, misses and response times
	// down by task, sorted by task ID. The aggregate Miss tallies are
	// the column sums.
	PerTask []*TaskStats

	// Slack is the per-job actual-vs-WCET accounting of stochastic
	// execution (task.ExecSpec): how many jobs drew an actual work
	// figure, how many completed with unspent budget, and the total
	// budget they left on the table. All zero for WCET-exact runs.
	Slack SlackStats

	// SleepTime is the time spent in a DPM sleep state, Wakeups the
	// number of initiated sleep exits, and DPMOverhead the energy drawn
	// by enter/exit transitions. All zero when the processor declares no
	// sleep states (cpu.WithSleepStates).
	SleepTime   float64
	Wakeups     int
	DPMOverhead float64

	Events          uint64
	ConservationErr float64

	// Degradation tallies how the run bent under injected faults
	// (Config.Faults); zero for a fault-free run.
	Degradation metrics.Degradation
}

// SlackStats tallies the gap between drawn actual execution times and the
// WCET budgets schedulers plan with.
type SlackStats struct {
	DrawnJobs        int     // jobs whose actual work was drawn from a distribution
	EarlyCompletions int     // completions that left unspent WCET budget
	ReclaimedWork    float64 // total unspent budget, in work units at f_max
}

// engine is the per-run mutable state.
//
// Event plumbing: the engine runs five event streams and merges them by
// (time, priority) in dispatch(). Only deadline checks need a priority
// queue — a typed min-heap of values (deadlineHeap), ordered by (time,
// scheduling order). The other classes each have a natural structure that
// makes a heap unnecessary:
//
//   - unit boundaries are a monotone +1 chain (nextBoundary),
//   - at most one segment end is pending at a time (segTime — superseding
//     it is a field write, so no event is ever cancelled),
//   - arrivals are a cursor over the pre-sorted release slice,
//   - at most one decision is pending at a time (decideAt).
//
// The priorities are disjoint per stream, so the merged order is exactly
// the (time, priority, insertion) order of a single event queue holding
// every event (refimpl's linear-scan list), and dispatched counts every
// fired event once.
//
// Quiet boundaries: a unit boundary whose decision is the only event left
// at its instant (no segment end, arrival or deadline check at or before
// it) runs that decision inline, still counted as one dispatched event
// under the budget and the context poll. The point is quiet when the
// ready queue is empty, the processor is idle, its idle draw is zero and
// it declares no sleep states. Every policy answers Idle(+Inf) there (the
// sched.Policy contract), which changes nothing, so a run with no probe
// and no invariant checker counts the decision and skips Decide.
// refimpl asks every time; the differential sweep checks the shortcut.
type engine struct {
	cfg      *Config
	queue    *task.ReadyQueue
	checks   deadlineHeap // pending deadline checks
	checkSeq uint64       // scheduling order of the next deadline check

	lastT float64 // state integrated up to here

	mode    Mode
	running *task.Job
	level   int

	segStart  float64 // start of the current constant-activity segment
	lastRunLv int     // level of the previous run segment, -1 before any

	release       []*task.Job // job releases sorted by arrival (stable)
	nextArrival   int         // cursor into release
	nextRelease   float64     // release[nextArrival].Arrival; +Inf when exhausted
	nextBoundary  float64     // next unit boundary; +Inf when exhausted
	segTime       float64     // pending segment end; +Inf when none
	decideAt      float64     // pending decision instant
	decidePending bool

	simNow     float64 // time of the last dispatched event
	dispatched uint64  // events fired across all streams (Result.Events)
	stopped    bool    // StopAtFirstMiss tripped; drain and finalize at simNow

	// DPM idle-manager state. The machine is: idle → (break-even gate)
	// sleeping until sleepWake → waking for the state's latency → idle.
	// A run decision while asleep forces the wake early; the policy is
	// not consulted again until the latency has elapsed.
	sleeping  bool
	sleepIdx  int     // index into the processor's sleep states
	sleepWake float64 // planned wake-initiation instant
	waking    bool
	wakeDone  float64 // wake transition completes here

	// ctx is the policy's view, reused across decisions (sched contract):
	// Queue, CPU, Predictor and Probe are set once per run, the rest per
	// decision.
	ctx sched.Context

	// srcT and srcP memoize the last Source.PowerAt query (srcT is NaN
	// before the first). Sources are pure in t, and the engine asks about
	// one instant several times in a row: the end of one integration
	// piece, the boundary observation and the decision that follow it.
	srcT, srcP float64

	initialLevel float64
	tasks        *taskTable
	execRNG      rng.RNG // parent of the per-job draws; seeded only in stochastic runs
	jobRNG       rng.RNG // reseeded per drawn job from execRNG
	faults       *fault.Set
	inv          *invariantChecker
	res          *Result
}

// Run executes the configured simulation and returns its result.
//
// With Config.CheckInvariants set, a run that breaches an invariant
// returns BOTH the (suspect) Result and a *InvariantError, so callers can
// diagnose the drift; a watchdog abort (Config.MaxEvents) returns a
// *EventBudgetError with a nil Result.
//
// Runs execute on pooled arenas (see Arena): the deadline heap, ready
// queue, per-task table and release-schedule buffers are reused across
// runs, so steady-state simulation allocates only the Result and the
// caller's stateful components, whatever the task set.
func Run(cfg *Config) (*Result, error) {
	a := arenaPool.Get().(*Arena)
	res, err := a.Run(cfg)
	// Deliberately not deferred: if Run panics (an engine bug), the arena
	// is dropped rather than returned to the pool half-mutated.
	arenaPool.Put(a)
	return res, err
}

// dispatch merges the event streams and runs the earliest (time, priority)
// pair until the horizon, enforcing the optional event budget
// (Config.MaxEvents).
func (e *engine) dispatch() error {
	for !e.stopped {
		t, prio, ok := e.peekNext()
		if !ok || t > e.cfg.Horizon {
			return nil
		}
		if err := e.admit(); err != nil {
			return err
		}
		e.simNow = t
		switch prio {
		case prioBoundary:
			e.nextBoundary = t + 1
			if e.nextBoundary > e.cfg.Horizon {
				e.nextBoundary = math.Inf(1)
			}
			e.onBoundary(t)
			if e.aloneAt(t) {
				// The re-decision onBoundary requested is the only event
				// left at t: run it here rather than round the loop. It is
				// still one dispatched event under the same budget and poll.
				if err := e.admit(); err != nil {
					return err
				}
				e.onBoundaryDecide(t)
			}
		case prioSegment:
			e.segTime = math.Inf(1)
			e.onSegmentEnd(t)
		case prioArrival:
			j := e.release[e.nextArrival]
			e.nextArrival++
			e.cacheNextRelease()
			e.onArrival(t, j)
		case prioDeadline:
			e.onDeadline(t, e.checks.pop())
		case prioDecide:
			e.onDecide(t, false)
		}
	}
	return nil
}

// admit counts one more dispatched event, enforcing the optional event
// budget (Config.MaxEvents) and polling the context first.
func (e *engine) admit() error {
	if e.cfg.MaxEvents > 0 && e.dispatched >= e.cfg.MaxEvents {
		return &EventBudgetError{
			Events:  e.dispatched,
			Time:    e.simNow,
			Horizon: e.cfg.Horizon,
			Pending: e.pendingEvents(),
		}
	}
	// Cooperative cancellation: poll the context every 256 events —
	// frequent enough to abort within microseconds of real time, rare
	// enough that the nil-context hot path stays unmeasurable.
	if e.cfg.Context != nil && e.dispatched&0xFF == 0 {
		if err := e.cfg.Context.Err(); err != nil {
			return fmt.Errorf("sim: run cancelled at t=%g after %d events: %w",
				e.simNow, e.dispatched, err)
		}
	}
	e.dispatched++
	return nil
}

// cacheNextRelease caches the release time at the arrival cursor, so the
// per-event merge reads no job.
func (e *engine) cacheNextRelease() {
	e.nextRelease = math.Inf(1)
	if e.nextArrival < len(e.release) {
		e.nextRelease = e.release[e.nextArrival].Arrival
	}
}

// aloneAt reports whether no segment end, arrival or deadline check is
// pending at or before t, so the decision requested at t fires next.
func (e *engine) aloneAt(t float64) bool {
	return e.segTime > t && e.nextRelease > t &&
		(len(e.checks) == 0 || e.checks[0].t > t)
}

// peekNext returns the earliest pending (time, priority) across the event
// streams. The priorities are disjoint per stream, so (time, priority)
// alone is a total order.
func (e *engine) peekNext() (float64, int, bool) {
	best, bestPrio := math.Inf(1), prioDecide+1
	if len(e.checks) > 0 {
		best, bestPrio = e.checks[0].t, prioDeadline
	}
	better := func(t float64, prio int) bool {
		return t < best || (t == best && prio < bestPrio)
	}
	if better(e.nextBoundary, prioBoundary) {
		best, bestPrio = e.nextBoundary, prioBoundary
	}
	if better(e.segTime, prioSegment) {
		best, bestPrio = e.segTime, prioSegment
	}
	if better(e.nextRelease, prioArrival) {
		best, bestPrio = e.nextRelease, prioArrival
	}
	if e.decidePending && better(e.decideAt, prioDecide) {
		best, bestPrio = e.decideAt, prioDecide
	}
	return best, bestPrio, !math.IsInf(best, 1)
}

// pendingEvents counts queued events across all streams (diagnostics for
// EventBudgetError).
func (e *engine) pendingEvents() int {
	n := len(e.checks) + (len(e.release) - e.nextArrival)
	if !math.IsInf(e.nextBoundary, 1) {
		n++
	}
	if !math.IsInf(e.segTime, 1) {
		n++
	}
	if e.decidePending {
		n++
	}
	return n
}

// cpuPower returns the processor draw for the current mode.
func (e *engine) cpuPower() float64 {
	switch e.mode {
	case ModeRun:
		return e.cfg.CPU.Power(e.level)
	case ModeIdle:
		return e.cfg.CPU.IdlePower()
	case ModeSleep:
		return e.cfg.CPU.SleepState(e.level).Power
	default: // ModeStall: the system is down
		return 0
	}
}

// powerAt returns the source power at t, answering a repeat of the last
// query instant from the memo.
func (e *engine) powerAt(t float64) float64 {
	if t != e.srcT {
		e.srcT, e.srcP = t, e.cfg.Source.PowerAt(t)
	}
	return e.srcP
}

// syncTo advances the energy and execution state from lastT to now,
// splitting at unit boundaries where the source power changes. Activity is
// constant across the whole span — behavioural changes are events, and
// events call syncTo before mutating anything.
func (e *engine) syncTo(now float64) {
	if now == e.lastT {
		return
	}
	if now < e.lastT-1e-9 {
		if e.inv != nil {
			// Structured violation instead of a crash: record the causal
			// breach and refuse to integrate backwards.
			e.inv.record("clock", now, "syncTo backwards from %g", e.lastT)
			return
		}
		panic(fmt.Sprintf("sim: syncTo backwards from %v to %v", e.lastT, now))
	}
	pc := e.cpuPower()
	for e.lastT < now {
		// Split at the next unit boundary: the source power is constant
		// on [k, k+1). floor(lastT)+1 > lastT always, so progress is
		// guaranteed.
		end := min(math.Floor(e.lastT)+1, now)
		dt := end - e.lastT
		ps := e.powerAt(e.lastT)
		delivered, _ := e.cfg.Store.Flow(ps, pc, dt)
		if e.inv != nil {
			e.inv.checkStoreBounds(end, e.cfg.Store.Level(), e.cfg.Store.Capacity())
		}
		switch e.mode {
		case ModeRun:
			e.res.BusyTime += dt
			e.res.LevelTime[e.level] += dt
			e.res.CPUEnergy += delivered
			e.running.Progress(e.cfg.CPU.Speed(e.level) * dt)
		case ModeIdle:
			e.res.IdleTime += dt
			e.res.CPUEnergy += delivered
		case ModeSleep:
			e.res.SleepTime += dt
			e.res.CPUEnergy += delivered
		case ModeStall:
			e.res.StallTime += dt
		}
		e.lastT = end
	}
	e.lastT = now
}

// setActivity transitions the processor's activity, closing the previous
// trace segment and counting DVFS switches.
func (e *engine) setActivity(now float64, mode Mode, j *task.Job, level int) {
	if mode == e.mode && j == e.running &&
		(mode != ModeRun && mode != ModeSleep || level == e.level) {
		return
	}
	e.closeSegment(now)
	if mode == ModeRun && e.cfg.Probe != nil {
		e.cfg.Probe.OnEvent(obs.Event{
			Time: now, Kind: obs.KindDispatch,
			TaskID: j.TaskID, Seq: j.Seq, Level: level,
		})
	}
	if mode == ModeRun {
		if e.lastRunLv >= 0 && e.lastRunLv != level {
			e.res.Switches++
		}
		e.lastRunLv = level
	}
	e.mode = mode
	e.running = j
	e.level = level
	e.segStart = now
}

// closeSegment emits the schedule segment ending at now, if any.
func (e *engine) closeSegment(now float64) {
	if now > e.segStart && e.cfg.Probe != nil {
		ev := obs.Event{
			Time: now, Kind: obs.KindSegment,
			TaskID: -1, Seq: -1,
			Start: e.segStart, Mode: e.mode.String(), Level: e.level,
		}
		if e.running != nil {
			ev.TaskID, ev.Seq = e.running.TaskID, e.running.Seq
		}
		e.cfg.Probe.OnEvent(ev)
	}
	e.segStart = now
}

// emit reports a point event to the probe.
func (e *engine) emit(t float64, kind obs.EventKind, j *task.Job) {
	if e.cfg.Probe != nil {
		ev := obs.Event{Time: t, Kind: kind, TaskID: -1, Seq: -1}
		if j != nil {
			ev.TaskID, ev.Seq = j.TaskID, j.Seq
		}
		e.cfg.Probe.OnEvent(ev)
	}
}

func (e *engine) onArrival(now float64, j *task.Job) {
	e.syncTo(now)
	actual := j.WCET
	// Deterministic per-(task, seq) draw, independent of event order. A
	// job with an ExecSpec makes the run Stochastic, so execRNG is seeded;
	// the draw reseeds the engine's one job generator in place.
	drawn := j.Exec != nil
	if drawn {
		e.execRNG.ChildInto(&e.jobRNG, uint64(j.TaskID)<<32^uint64(j.Seq))
		actual = j.WCET * j.Exec.Ratio(&e.jobRNG, j.Seq)
		e.res.Slack.DrawnJobs++
	}
	// Injected overrun: the true work exceeds what the task declared; the
	// scheduler keeps budgeting the WCET and only the engine knows.
	if of := e.faults.OverrunFactor(j.TaskID, j.Seq); of > 1 {
		actual = float64(actual * of) // rounded here: no fused multiply-add
		j.SetOverrunWork(actual)
		e.faults.AddOverrunWork(max(0, actual-j.WCET))
	} else if drawn {
		j.SetActualWork(actual)
	}
	e.res.Miss.Released++
	e.tasks.released(j)
	e.emit(now, obs.KindArrival, j)
	if j.ActualRemaining() < workEps {
		// Zero-work job (WCET 0, or a zero actual-work draw): completes
		// at release without touching the processor.
		if rem := j.ActualRemaining(); rem > 0 {
			j.Progress(rem)
		} else {
			j.Progress(0)
		}
		e.res.Miss.Finished++
		e.tasks.finished(j, now)
		e.emit(now, obs.KindCompletion, j)
		e.noteReclaimed(now, j)
		return
	}
	e.queue.Push(j)
	// Deadline check, scheduled only if it falls inside the horizon; jobs
	// whose deadlines lie beyond the horizon are left unadjudicated.
	if j.Abs <= e.cfg.Horizon {
		e.checks.push(deadlineCheck{t: j.Abs, seq: e.checkSeq, job: j})
		e.checkSeq++
	}
	e.requestDecide(now)
}

func (e *engine) onDeadline(now float64, j *task.Job) {
	e.syncTo(now)
	if j.Done() {
		return
	}
	e.res.Miss.Missed++
	e.tasks.missed(j)
	e.emit(now, obs.KindMiss, j)
	if e.cfg.StopAtFirstMiss {
		// The zero-miss predicate is now decided; dispatch() drains after
		// this handler returns and the run finalizes at simNow.
		e.stopped = true
	}
	e.queue.Remove(j)
	if e.running == j {
		e.setActivity(now, ModeIdle, nil, 0)
	}
	e.requestDecide(now)
}

func (e *engine) onBoundary(now float64) {
	e.syncTo(now)
	if e.inv != nil {
		e.inv.checkClock(now)
		m := e.cfg.Store.Meters()
		e.inv.checkConservation(now, e.cfg.Store.ConservationError(e.initialLevel), e.initialLevel+m.Stored)
	}
	e.cfg.Predictor.Observe(now-1, e.powerAt(now-1))
	if s := e.res.EnergySeries; s != nil {
		k := int(math.Round(now))
		if k < s.Len() {
			s.Values[k] = e.cfg.Store.Level()
		}
	}
	// The boundary chain advances in dispatch(); nothing to re-arm here.
	// Harvest conditions changed: lazy policies must re-evaluate s1/s2.
	e.requestDecide(now)
}

// onBoundaryDecide runs the decision of a unit boundary alone at its
// instant. At a quiet point (see engine; with no sleep states the
// processor is never asleep or waking) onDecide would change nothing but
// the decision count, so an untraced, unchecked run only counts it.
func (e *engine) onBoundaryDecide(now float64) {
	quiet := e.queue.Len() == 0 && e.mode == ModeIdle &&
		e.cfg.CPU.IdlePower() == 0 && e.cfg.CPU.SleepLevels() == 0
	if quiet && e.cfg.Probe == nil && e.inv == nil {
		e.decidePending = false
		e.segTime = math.Inf(1)
		e.res.Decisions++
		return
	}
	e.onDecide(now, quiet)
}

// onSegmentEnd fires when the current activity's natural end is reached:
// job completion, storage depletion, or the policy's requested
// re-evaluation instant. All three reduce to "update state, re-decide".
func (e *engine) onSegmentEnd(now float64) {
	e.syncTo(now)
	e.finishIfDone(now)
	e.requestDecide(now)
}

// finishIfDone retires the running job if its work is (numerically)
// exhausted.
func (e *engine) finishIfDone(now float64) {
	j := e.running
	if e.mode != ModeRun || j == nil {
		return
	}
	if rem := j.ActualRemaining(); rem > 0 && rem < workEps {
		j.Progress(rem)
	}
	if j.Done() {
		e.queue.Remove(j)
		e.res.Miss.Finished++
		e.tasks.finished(j, now)
		e.emit(now, obs.KindCompletion, j)
		e.noteReclaimed(now, j)
		e.setActivity(now, ModeIdle, nil, 0)
	}
}

// noteReclaimed tallies a completing job's unspent WCET budget — the
// slack a reclaiming policy can fold into later decisions — and emits the
// early-completion event. A job that ran to its full budget contributes
// nothing, so WCET-exact runs never reach the body.
func (e *engine) noteReclaimed(now float64, j *task.Job) {
	if rem := j.Remaining(); rem > workEps {
		e.res.Slack.EarlyCompletions++
		e.res.Slack.ReclaimedWork += rem
		e.emit(now, obs.KindEarlyCompletion, j)
	}
}

func (e *engine) requestDecide(now float64) {
	if e.decidePending {
		return
	}
	e.decidePending = true
	e.decideAt = now
}

// onDecide asks the policy and applies its decision. quiet marks a quiet
// unit boundary (onBoundaryDecide), where the checker holds the policy to
// its Idle(+Inf) answer.
func (e *engine) onDecide(now float64, quiet bool) {
	e.decidePending = false
	e.syncTo(now)
	e.finishIfDone(now)

	// A fresh decision supersedes any pending segment end.
	e.segTime = math.Inf(1)

	// DPM: a wake transition in progress blocks scheduling — the policy
	// is not consulted until the latency has elapsed.
	if e.waking {
		if now < e.wakeDone {
			e.holdSleep(now, e.wakeDone)
			return
		}
		e.waking, e.sleeping = false, false
		e.setActivity(now, ModeIdle, nil, 0)
	}

	// The context struct is reused across decisions — policies must not
	// retain it past Decide (sched.Context's documented contract). Only
	// its per-decision fields are assigned here, in place: a composite
	// literal would build a temporary and block-copy it on every decision.
	ctx := &e.ctx
	ctx.Now = now
	ctx.Stored = e.cfg.Store.Level()
	ctx.Capacity = e.cfg.Store.Capacity()
	ctx.Reclaimed = e.res.Slack.ReclaimedWork
	d := e.cfg.Policy.Decide(ctx)
	e.res.Decisions++
	if quiet && e.inv != nil && d != sched.Idle(math.Inf(1)) {
		e.inv.record("policy-contract", now,
			"policy %s answered (idle %t, level %d, until %g) at a quiet unit boundary (empty ready queue), want Idle(+Inf)",
			e.cfg.Policy.Name(), d.Job == nil, d.Level, d.Until)
	}
	if e.mode == ModeRun && e.running != nil && !e.running.Done() &&
		d.Job != nil && d.Job != e.running {
		e.res.Preemptions++
	}

	if d.Job == nil {
		if e.sleeping {
			if now < e.sleepWake {
				// Still idle and still ahead of the planned wake: stay in
				// the sleep state without re-paying the enter energy.
				e.holdSleep(now, e.sleepWake)
				return
			}
			e.initiateWake(now)
			return
		}
		e.setActivity(now, ModeIdle, nil, 0)
		until := d.Until
		if idle := e.cfg.CPU.IdlePower(); idle > 0 {
			// A non-zero idle draw can also empty the store; split there
			// so the exact-flow precondition holds.
			sustain := e.cfg.Store.TimeToEmpty(e.powerAt(now), idle)
			if sustain < stallEps {
				e.setActivity(now, ModeStall, nil, 0)
				return
			}
			until = min(until, now+sustain)
		}
		if e.cfg.CPU.SleepLevels() > 0 {
			e.maybeSleep(now, until)
			if e.sleeping {
				return
			}
		}
		e.scheduleSegmentEnd(now, math.Inf(1), until)
		return
	}
	if e.sleeping {
		// The policy wants the processor back before the planned wake:
		// initiate the wake now; the run decision is re-derived once the
		// latency has elapsed.
		e.initiateWake(now)
		return
	}
	if d.Job.Done() {
		panic(fmt.Sprintf("sim: policy %s scheduled a finished job", e.cfg.Policy.Name()))
	}

	// The DVFS fault may refuse the requested transition (stuck
	// frequency): the processor then keeps its latched operating point
	// and the clamp is recorded as degradation, not an error. Fault-free
	// runs keep the strict path, where an out-of-range level panics as an
	// engine/policy bug.
	level := d.Level
	if e.faults != nil {
		requested := e.cfg.CPU.ClampLevel(level)
		level = e.cfg.CPU.ClampLevel(e.faults.DVFSLevel(now, e.lastRunLv, requested))
		if level != requested && e.cfg.Probe != nil {
			e.cfg.Probe.OnEvent(obs.Event{
				Time: now, Kind: obs.KindFault,
				TaskID: d.Job.TaskID, Seq: d.Job.Seq,
				Level: level, Detail: "dvfs-clamp",
			})
		}
	}

	ps := e.powerAt(now)
	pc := e.cfg.CPU.Power(level)
	sustain := e.cfg.Store.TimeToEmpty(ps, pc)
	if sustain < stallEps {
		// §4.2: no available energy — the system stops until conditions
		// change (next unit boundary or arrival re-decides).
		wasStalled := e.mode == ModeStall && e.running == d.Job
		e.setActivity(now, ModeStall, d.Job, level)
		if !wasStalled {
			e.emit(now, obs.KindStall, d.Job)
		}
		return
	}

	e.setActivity(now, ModeRun, d.Job, level)
	completion := now + d.Job.ActualRemaining()/e.cfg.CPU.Speed(level)
	e.scheduleSegmentEnd(now, completion, min(d.Until, now+sustain))
}

// maybeSleep is the DPM idle manager: with the processor freshly idle,
// it parks it in the deepest sleep state whose break-even time plus wake
// latency fits the guaranteed quiet window — no arrival and no policy
// re-evaluation before its end (deadline events can still fire, forcing
// an early wake with the full latency penalty, which is exactly the risk
// break-even gating prices in). The planned wake initiates one latency
// early, so the processor is available again right when the window ends.
func (e *engine) maybeSleep(now, until float64) {
	winEnd := min(until, e.cfg.Horizon, e.nextRelease)
	idx := e.cfg.CPU.DeepestSleepFor(winEnd - now)
	if idx < 0 {
		return
	}
	st := e.cfg.CPU.SleepState(idx)
	if st.EnterEnergy > 0 {
		e.cfg.Store.Draw(st.EnterEnergy)
	}
	e.res.DPMOverhead += st.EnterEnergy
	e.sleeping = true
	e.sleepIdx = idx
	e.sleepWake = winEnd - st.WakeLatency
	e.holdSleep(now, e.sleepWake)
}

// initiateWake starts the sleep-exit transition: the exit energy is paid
// now, and the processor stays unavailable (still drawing the sleep
// state's power) until the wake latency elapses, when onDecide completes
// the transition back to idle.
func (e *engine) initiateWake(now float64) {
	st := e.cfg.CPU.SleepState(e.sleepIdx)
	if st.ExitEnergy > 0 {
		e.cfg.Store.Draw(st.ExitEnergy)
	}
	e.res.DPMOverhead += st.ExitEnergy
	e.res.Wakeups++
	e.waking = true
	e.wakeDone = now + st.WakeLatency
	e.holdSleep(now, e.wakeDone)
}

// holdSleep keeps the processor in its sleep state — asleep, or waking —
// until end. The sleep draw can empty a small store, so the segment ends
// at the store's depletion, and a store that cannot sustain the draw at
// all stalls the processor until conditions change (next unit boundary or
// arrival re-decides), exactly as run and idle segments do.
func (e *engine) holdSleep(now, end float64) {
	draw := e.cfg.CPU.SleepState(e.sleepIdx).Power
	sustain := e.cfg.Store.TimeToEmpty(e.powerAt(now), draw)
	if sustain < stallEps {
		e.setActivity(now, ModeStall, nil, 0)
		return
	}
	e.setActivity(now, ModeSleep, nil, e.sleepIdx)
	e.scheduleSegmentEnd(now, math.Inf(1), min(end, now+sustain))
}

// scheduleSegmentEnd installs the next forced re-evaluation at
// min(completion, until), if finite. Unit boundaries and arrivals fire
// their own events, so a segment never actually outlives a source change:
// the depletion time computed above is exact within the current unit.
func (e *engine) scheduleSegmentEnd(now, completion, until float64) {
	end := min(completion, until)
	if math.IsInf(end, 1) {
		return
	}
	if end < now+1e-12 {
		end = now + 1e-12 // forward progress even on degenerate inputs
	}
	if end > e.cfg.Horizon {
		return // the run ends first
	}
	e.segTime = end
}
