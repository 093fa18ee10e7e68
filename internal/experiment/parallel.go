package experiment

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"github.com/eadvfs/eadvfs/internal/metrics"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/sim"
)

// Parallelism is the number of worker goroutines experiment runners use
// for independent simulations. Each simulation is single-threaded and
// fully self-contained (per-run store, predictor and policy state), so
// replications parallelize embarrassingly; results are merged in a
// deterministic order regardless of completion order.
var Parallelism = runtime.GOMAXPROCS(0)

// Progress, when non-nil, is invoked after every finished parallel job with
// the number of jobs done so far and the batch total. Calls are serialized
// (one at a time), so the reporter needs no locking of its own; it must be
// fast — it runs on the worker's critical path. The eaexp live progress
// line is the intended consumer.
var Progress func(done, total int)

// job is one unit of parallel work, identified by its slot in the output.
type job struct {
	slot int
	run  func() error
}

// grid is one sweep's replication × point × policy grid. Every sweep of
// the package — a shard of a miss-rate or remaining-energy sweep, the
// sensitivity sweeps, robustness, overhead, convergence and Table 1 —
// describes its grid and supplies a cell, and runGrid owns the plan and
// simulate stages; the sweep keeps only its fold.
type grid struct {
	spec Spec // validated by the plan; replications derive from it
	// policies are resolved at spec, one cell per policy at every point.
	// A paired grid instead has one cell per (replication, point) that
	// compares the sweep's policies itself (Table 1's pair of searches):
	// it resolves none, and its cells' pf is nil.
	policies  []string
	paired    bool
	lo, hi    int  // replication window [lo, hi)
	points    int  // grid points per replication
	shard     int  // shard index the plan span reports
	keepGoing bool // a failing cell leaves its slot absent instead of cancelling the rest
}

// runGrid plans and simulates grid g. Cell (i, p, pi) — replication
// lo+i, point p, policy pi — owns slot (i*points+p)*np+pi of the returned
// slice (np is 1 for a paired grid), the layout every sweep's fold
// reads: cell runs it with policy pi's factory and returns its material.
//
// The plan validates the spec, resolves the policies and derives the
// replications — task sets and source seeds only, so a generation error
// surfaces before any run starts. A replication is prepared by the
// worker that runs it: its first cell a worker picks realizes the solar
// master through the horizon (a per-replication sync.Once, so its other
// cells wait for that one realization), and the cell that counts down
// its last cell drops the master. Workers pick cells in slot order, so a
// sweep holds about Parallelism prepared traces at a time, whatever its
// replication count. A failed cell is not counted down; its
// replication's master lives until the batch is dropped.
//
// Without keepGoing the first failing cell (by slot) cancels the rest
// and is returned (runJobs); with it every cell runs, errs holds the
// failures by slot (runJobsPartial) and their slots stay zero.
//
// Phase spans (DESIGN.md §15): when the spec carries a span sink, the
// plan and the parallel simulation each emit one wall-clock span under
// the sink's parent context, and runGrid returns the aggregate span
// still open for the sweep's fold. It is nil (End a no-op) when the grid
// failed or no sink is attached.
func runGrid[T any](ctx context.Context, g grid, cell func(slot int, rep Replication, p int, pf PolicyFactory) (T, error)) (slots []T, errs map[int]error, agg *obs.ActiveSpan, err error) {
	traceParent := obs.SpanParentOf(g.spec.Spans)
	phase := func(name string) *obs.ActiveSpan {
		return obs.StartSpan(g.spec.Spans, "experiment", name, traceParent)
	}
	sp := phase("plan")
	factories, lazy, err := g.plan()
	sp.SetInt("shard", int64(g.shard))
	sp.SetInt("replications", int64(g.hi-g.lo))
	sp.End()
	if err != nil {
		return nil, nil, nil, err
	}

	np := max(len(factories), 1)
	cells := g.points * np
	slots = make([]T, len(lazy)*cells)
	jobs := make([]job, len(slots))
	for slot := range jobs {
		l, p, pi := &lazy[slot/cells], slot/np%g.points, slot%np
		var pf PolicyFactory
		if factories != nil {
			pf = factories[pi]
		}
		jobs[slot] = job{slot: slot, run: func() error {
			l.once.Do(func() { l.rep.PrepareSource(g.spec.Horizon) })
			v, err := cell(slot, l.rep, p, pf)
			if err != nil {
				return err
			}
			slots[slot] = v
			if l.left.Add(-1) == 0 {
				l.rep.master = nil
			}
			return nil
		}}
	}
	for i := range lazy {
		lazy[i].left.Store(int64(cells))
	}

	sp = phase("simulate")
	sp.SetInt("runs", int64(len(jobs)))
	if g.keepGoing {
		errs, _ = runJobsPartial(ctx, jobs, true)
	} else if err = runJobs(ctx, jobs); err != nil {
		sp.SetAttr("error", err.Error())
		sp.End()
		return nil, nil, nil, err
	}
	sp.End()
	return slots, errs, phase("aggregate"), nil
}

// plan validates the grid's spec, resolves its policies at the spec and
// derives its replications, not yet prepared.
func (g grid) plan() (factories []PolicyFactory, lazy []lazyRep, err error) {
	if err = g.spec.Validate(); err != nil {
		return nil, nil, err
	}
	if !g.paired {
		if factories, err = g.spec.Policies(g.policies); err != nil {
			return nil, nil, err
		}
	}
	lazy = make([]lazyRep, g.hi-g.lo)
	for i := range lazy {
		if lazy[i].rep, err = Replicate(g.spec, g.lo+i); err != nil {
			return nil, nil, err
		}
	}
	return factories, lazy, nil
}

// missOf is a miss-rate cell's material: the run's tally, or its error.
func missOf(res *sim.Result, err error) (metrics.MissStats, error) {
	if err != nil {
		return metrics.MissStats{}, err
	}
	return res.Miss, nil
}

// lazyRep is one replication of a grid: prepared once by its
// first cell, its master dropped when left, the count of its cells not
// yet finished, reaches zero. Every cell copies rep before it counts
// down, so the last cell's write cannot race a reader.
type lazyRep struct {
	once sync.Once
	rep  Replication
	left atomic.Int64
}

// PanicError is a worker panic converted into a slot-attributed error, so
// one exploding replication surfaces as a diagnosable failure instead of
// crashing (or, worse, hanging) the whole sweep.
type PanicError struct {
	Slot  int
	Value any
	Stack string
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("experiment: job %d panicked: %v", e.Slot, e.Value)
}

// CancelledError reports a batch stopped early by context cancellation: a
// partial-aggregation error carrying how far the sweep got. Already-running
// jobs finished (their results are in the caller's slot storage), but
// Skipped queued jobs were never started, so any aggregate over the batch
// would silently mix completed and missing slots — callers must treat the
// sweep as partial. errors.Is(err, context.Canceled) (or DeadlineExceeded)
// sees through it via Unwrap.
type CancelledError struct {
	Done    int   // jobs that ran to completion (or failed) before the stop
	Skipped int   // queued jobs cancelled at pickup
	Total   int   // jobs in the batch
	Err     error // the context's error (Canceled or DeadlineExceeded)
}

// Error implements error.
func (e *CancelledError) Error() string {
	return fmt.Sprintf("experiment: sweep cancelled after %d/%d jobs (%d skipped at pickup): %v",
		e.Done, e.Total, e.Skipped, e.Err)
}

// Unwrap exposes the context error to errors.Is/As.
func (e *CancelledError) Unwrap() error { return e.Err }

// RunHardened executes fn with the parallel runner's robustness wrapper —
// panic recovery into a *PanicError attributed to slot 0 — without a
// batch around it. The simulation service uses it so a single
// network-submitted run gets the same hardening a sweep replication does:
// one exploding request surfaces as a diagnosable 5xx, never a dead
// worker.
func RunHardened(fn func() error) error {
	return runJob(job{slot: 0, run: fn})
}

// runJobs executes jobs across min(Parallelism, len(jobs)) workers and
// returns the first error (by slot order) if any failed. Each job writes
// its result into caller-owned, slot-indexed storage, which keeps merging
// deterministic.
//
// Robustness guarantees: a panicking job is recovered into a *PanicError
// (the sweep never hangs on a dead worker), and after the first recorded
// error the remaining queued jobs are cancelled at pickup — already-running
// jobs finish, and their errors still participate in lowest-slot
// selection. Workers pick jobs in slot order under one mutex, so with a
// single worker the batch runs strictly in order and a failure cancels
// exactly the jobs after it. When ctx is cancelled, queued jobs are
// dropped at pickup as well and the batch returns a *CancelledError
// describing the partial aggregation, taking precedence over per-job
// errors — a cancelled sweep's job errors are usually just the engine
// reporting the same cancellation.
func runJobs(ctx context.Context, jobs []job) error {
	errs, skipped := runJobsPartial(ctx, jobs, false)
	if err := ctx.Err(); err != nil && skipped > 0 {
		return &CancelledError{
			Done:    len(jobs) - skipped,
			Skipped: skipped,
			Total:   len(jobs),
			Err:     err,
		}
	}
	return lowestSlotError(errs)
}

// runJobsPartial is the engine behind runJobs. With keepGoing set, a
// failing job does not cancel the rest: every job runs, the per-slot
// errors are returned, and the caller aggregates the surviving slots — one
// bad replication no longer discards a whole sweep. A cancelled ctx stops
// the batch at job pickup either way (keepGoing tolerates job failures,
// not an abandoned request). It returns the recorded errors by slot and
// the number of jobs skipped by cancellation.
func runJobsPartial(ctx context.Context, jobs []job, keepGoing bool) (map[int]error, int) {
	workers := Parallelism
	if workers < 1 {
		workers = 1
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var (
		mu        sync.Mutex
		errs      = make(map[int]error)
		cancelled atomic.Bool
		skipped   int
		done      int
	)
	record := func(slot int, err error) {
		mu.Lock()
		errs[slot] = err
		mu.Unlock()
		if !keepGoing {
			cancelled.Store(true)
		}
	}
	// Snapshot the hook once: reporters are installed before the batch
	// starts, and a stable local avoids racing a reassignment mid-batch.
	progress := Progress
	finished := func() {
		if progress == nil {
			return
		}
		mu.Lock()
		done++
		progress(done, len(jobs))
		mu.Unlock()
	}
	var (
		wg   sync.WaitGroup
		next int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(jobs) {
					mu.Unlock()
					return
				}
				if cancelled.Load() || ctx.Err() != nil {
					skipped += len(jobs) - next
					next = len(jobs)
					mu.Unlock()
					return
				}
				j := jobs[next]
				next++
				mu.Unlock()
				if err := runJob(j); err != nil {
					record(j.slot, err)
				}
				finished()
			}
		}()
	}
	wg.Wait()
	return errs, skipped
}

// runJob executes the job's function, converting a panic into a
// slot-attributed *PanicError.
func runJob(j job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Slot: j.slot, Value: r, Stack: string(debug.Stack())}
		}
	}()
	return j.run()
}

// lowestSlotError returns the recorded error with the smallest slot, for
// deterministic reporting, or nil.
func lowestSlotError(errs map[int]error) error {
	best := -1
	for slot := range errs {
		if best == -1 || slot < best {
			best = slot
		}
	}
	if best == -1 {
		return nil
	}
	return errs[best]
}
