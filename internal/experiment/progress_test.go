package experiment

import (
	"context"
	"errors"
	"testing"

	"github.com/eadvfs/eadvfs/internal/obs"
)

// The Progress hook sees every finished job exactly once, with done
// counting monotonically from 1 to the batch total.
func TestProgressHookCountsEveryJob(t *testing.T) {
	const n = 25
	var calls []int
	Progress = func(done, total int) {
		if total != n {
			t.Errorf("total = %d, want %d", total, n)
		}
		calls = append(calls, done) // serialized by contract, no locking
	}
	defer func() { Progress = nil }()

	var jobs []job
	for i := 0; i < n; i++ {
		jobs = append(jobs, job{slot: i, run: func() error { return nil }})
	}
	if err := runJobs(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if len(calls) != n {
		t.Fatalf("progress called %d times, want %d", len(calls), n)
	}
	for i, done := range calls {
		if done != i+1 {
			t.Fatalf("call %d reported done=%d, want %d (monotonic)", i, done, i+1)
		}
	}
}

// A failing batch still reports progress for the jobs that ran: the
// reporter reflects work done, not work succeeded.
func TestProgressHookRunsOnFailures(t *testing.T) {
	old := Parallelism
	Parallelism = 1 // one worker: deterministic pickup-time cancellation
	defer func() { Parallelism = old }()

	var last int
	Progress = func(done, total int) { last = done }
	defer func() { Progress = nil }()

	errBoom := errors.New("boom")
	jobs := []job{
		{slot: 0, run: func() error { return errBoom }},
		{slot: 1, run: func() error { return nil }}, // cancelled at pickup
	}
	if err := runJobs(context.Background(), jobs); err == nil {
		t.Fatal("want the job error back")
	}
	if last != 1 {
		t.Fatalf("progress saw %d finished jobs, want 1 (the failing one)", last)
	}
}

// A Spec with a registry attached tallies per-run aggregates; without one
// (or without a result) recordRun is a no-op, not a panic.
func TestSpecRecordsRunMetrics(t *testing.T) {
	spec := DefaultSpec()
	spec.Horizon = 300
	spec.Metrics = obs.NewRegistry()

	rep, err := Replicate(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := spec.PolicyFor("ea-dvfs")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunOne(context.Background(), spec, rep, spec.Capacities[0], pf, false)
	if err != nil {
		t.Fatal(err)
	}
	runs := spec.Metrics.Counter("eadvfs_runs_total", "")
	if got := runs.Value(); got != 1 {
		t.Fatalf("eadvfs_runs_total = %v after one run, want 1", got)
	}
	released := spec.Metrics.Counter(obs.Labeled("eadvfs_run_jobs_total", "outcome", "released"), "")
	if got := released.Value(); got != float64(res.Miss.Released) {
		t.Fatalf("released counter = %v, result says %d", got, res.Miss.Released)
	}

	spec.Metrics = nil
	spec.recordRun(nil) // must not panic
}
