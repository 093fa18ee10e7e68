package experiment

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// A cancelled context stops queued jobs at pickup and surfaces as a
// *CancelledError that unwraps to the context's error.
func TestRunParallelCtxCancelMidBatch(t *testing.T) {
	old := Parallelism
	defer func() { Parallelism = old }()
	Parallelism = 2

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var ran atomic.Int32
	jobs := make([]job, 12)
	for i := range jobs {
		i := i
		jobs[i] = job{slot: i, run: func() error {
			ran.Add(1)
			if i == 0 {
				cancel()
			}
			time.Sleep(5 * time.Millisecond)
			return nil
		}}
	}

	done := make(chan error, 1)
	go func() { done <- runJobs(ctx, jobs) }()
	select {
	case err := <-done:
		var ce *CancelledError
		if !errors.As(err, &ce) {
			t.Fatalf("runJobs = %v, want *CancelledError", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("error %v does not unwrap to context.Canceled", err)
		}
		if ce.Skipped == 0 || ce.Done+ce.Skipped != ce.Total || ce.Total != len(jobs) {
			t.Fatalf("partial accounting %+v inconsistent for %d jobs", ce, len(jobs))
		}
		if int(ran.Load()) != ce.Done {
			t.Fatalf("%d jobs actually ran, error reports %d", ran.Load(), ce.Done)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled batch hung")
	}
}

// A context cancelled before the batch starts skips every job.
func TestRunParallelCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := []job{{slot: 0, run: func() error { t.Error("job ran under cancelled ctx"); return nil }}}
	err := runJobs(ctx, jobs)
	var ce *CancelledError
	if !errors.As(err, &ce) || ce.Done != 0 || ce.Skipped != 1 {
		t.Fatalf("pre-cancelled batch: err = %v, want CancelledError{Done:0, Skipped:1}", err)
	}
}

// Cancelling mid-sweep returns a partial-aggregation error rather than a
// hang or a silently partial pooled miss rate. A single worker plus the
// Progress hook make the cancellation point deterministic: after the first
// finished replication, every remaining job must be skipped at pickup.
func TestMissRateSweepCancelMidSweep(t *testing.T) {
	oldP := Parallelism
	oldProg := Progress
	defer func() { Parallelism = oldP; Progress = oldProg }()
	Parallelism = 1

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	Progress = func(done, total int) {
		if done == 1 {
			cancel()
		}
	}

	s := DefaultSpec()
	s.Horizon = 500
	s.Replications = 4
	s.Capacities = []float64{200, 1000}

	done := make(chan struct{})
	var res *MergedSweep
	var err error
	go func() {
		res, err = RunSweep(ctx, "missrate", s, []string{"lsa"})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled sweep hung")
	}
	if res != nil {
		t.Fatal("cancelled sweep returned a (partial) result")
	}
	var ce *CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("RunSweep = %v, want *CancelledError", err)
	}
	if ce.Done != 1 || ce.Skipped != ce.Total-1 {
		t.Fatalf("partial accounting %+v, want exactly 1 job done", ce)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not unwrap to context.Canceled", err)
	}
}

// A background context must leave the sweeps bit-identical to the
// non-context entry points (same code path, no cancellation polling).
func TestMissRateSweepBackgroundMatches(t *testing.T) {
	s := DefaultSpec()
	s.Horizon = 500
	s.Replications = 2
	s.Capacities = []float64{300}

	direct, err := MissRateSweep(s, []string{"lsa"})
	if err != nil {
		t.Fatal(err)
	}
	viaCtx, err := RunSweep(context.Background(), "missrate", s, []string{"lsa"})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := viaCtx.MissRate.Rates["lsa"][0], direct.Rates["lsa"][0]; got != want {
		t.Fatalf("ctx sweep rate %v != direct sweep rate %v", got, want)
	}
}
