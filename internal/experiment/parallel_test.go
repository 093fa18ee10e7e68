package experiment

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRunParallelExecutesAll(t *testing.T) {
	const n = 100
	var count int64
	var jobs []job
	for i := 0; i < n; i++ {
		jobs = append(jobs, job{slot: i, run: func() error {
			atomic.AddInt64(&count, 1)
			return nil
		}})
	}
	if err := runJobs(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("executed %d of %d jobs", count, n)
	}
}

// When several in-flight jobs fail, the reported error is the one with the
// lowest slot, regardless of completion order. A barrier holds all jobs
// in-flight so cancellation cannot skip any of them.
func TestRunParallelReportsLowestSlotError(t *testing.T) {
	old := Parallelism
	defer func() { Parallelism = old }()
	Parallelism = 3

	errA := errors.New("a")
	errB := errors.New("b")
	var barrier sync.WaitGroup
	barrier.Add(3)
	gate := func(err error) error {
		barrier.Done()
		barrier.Wait() // all three jobs are running before any error records
		return err
	}
	jobs := []job{
		{slot: 5, run: func() error { return gate(errB) }},
		{slot: 2, run: func() error { return gate(errA) }},
		{slot: 9, run: func() error { return gate(nil) }},
	}
	if err := runJobs(context.Background(), jobs); err != errA {
		t.Fatalf("got %v, want the slot-2 error", err)
	}
}

func TestRunParallelEmptyAndSerial(t *testing.T) {
	if err := runJobs(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	old := Parallelism
	defer func() { Parallelism = old }()
	Parallelism = 1
	ran := false
	if err := runJobs(context.Background(), []job{{slot: 0, run: func() error { ran = true; return nil }}}); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("a single worker did not run the job")
	}
	Parallelism = 0 // degenerate setting must still work
	if err := runJobs(context.Background(), []job{{slot: 0, run: func() error { return nil }}}); err != nil {
		t.Fatal(err)
	}
}

// A panicking job must surface as a slot-attributed error — before panic
// recovery, the panic killed its worker goroutine and wg.Wait() hung the
// whole sweep once every worker had died.
func TestRunParallelPanicSurfacesAsError(t *testing.T) {
	old := Parallelism
	defer func() { Parallelism = old }()
	Parallelism = 2

	var jobs []job
	for i := 0; i < 8; i++ {
		i := i
		jobs = append(jobs, job{slot: i, run: func() error {
			if i == 3 {
				panic("boom")
			}
			return nil
		}})
	}
	err := runJobs(context.Background(), jobs)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PanicError", err)
	}
	if pe.Slot != 3 || pe.Value != "boom" {
		t.Fatalf("panic attributed to slot %d value %v", pe.Slot, pe.Value)
	}
	if !strings.Contains(pe.Stack, "goroutine") {
		t.Fatal("panic error carries no stack trace")
	}
	if !strings.Contains(pe.Error(), "job 3 panicked") {
		t.Fatalf("unhelpful message %q", pe.Error())
	}
}

// Every worker panicking at once must still return, not deadlock.
func TestRunParallelAllPanicNoHang(t *testing.T) {
	old := Parallelism
	defer func() { Parallelism = old }()
	Parallelism = 4

	var jobs []job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, job{slot: i, run: func() error { panic("everyone") }})
	}
	var pe *PanicError
	if err := runJobs(context.Background(), jobs); !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PanicError", err)
	}
}

// After the first error, queued jobs are cancelled at pickup instead of
// being executed uselessly.
func TestRunParallelCancelsQueuedAfterError(t *testing.T) {
	old := Parallelism
	defer func() { Parallelism = old }()
	Parallelism = 1 // one worker picks in slot order, so the cancellation point is exact

	boom := errors.New("boom")
	var ran int64
	jobs := []job{
		{slot: 0, run: func() error { atomic.AddInt64(&ran, 1); return nil }},
		{slot: 1, run: func() error { return boom }},
		{slot: 2, run: func() error { atomic.AddInt64(&ran, 1); return nil }},
		{slot: 3, run: func() error { atomic.AddInt64(&ran, 1); return nil }},
	}
	errs, skipped := runJobsPartial(context.Background(), jobs, false)
	if err := lowestSlotError(errs); err != boom {
		t.Fatalf("got %v, want boom", err)
	}
	if ran != 1 {
		t.Fatalf("%d clean jobs ran, want only the pre-error one", ran)
	}
	if skipped != 2 {
		t.Fatalf("skipped %d jobs, want 2", skipped)
	}
}

// With keepGoing, errors are collected without cancelling the rest —
// partial-result aggregation runs every slot.
func TestRunParallelPartialKeepsGoing(t *testing.T) {
	old := Parallelism
	defer func() { Parallelism = old }()
	Parallelism = 4

	boom := errors.New("boom")
	var ran int64
	var jobs []job
	for i := 0; i < 12; i++ {
		i := i
		jobs = append(jobs, job{slot: i, run: func() error {
			atomic.AddInt64(&ran, 1)
			if i%4 == 0 {
				return boom
			}
			return nil
		}})
	}
	errs, skipped := runJobsPartial(context.Background(), jobs, true)
	if ran != 12 || skipped != 0 {
		t.Fatalf("ran %d skipped %d, want 12/0", ran, skipped)
	}
	if len(errs) != 3 {
		t.Fatalf("recorded %d errors, want 3: %v", len(errs), errs)
	}
	for _, slot := range []int{0, 4, 8} {
		if errs[slot] != boom {
			t.Fatalf("slot %d error %v, want boom", slot, errs[slot])
		}
	}
}

// RunHardened is the service's run wrapper: a panic comes back as a
// slot-0 *PanicError with a stack, and anything the function returns comes
// back unchanged.
func TestRunHardened(t *testing.T) {
	err := RunHardened(func() error { panic("boom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PanicError", err)
	}
	if pe.Slot != 0 || pe.Value != "boom" {
		t.Fatalf("panic attributed to slot %d value %v, want slot 0 value boom", pe.Slot, pe.Value)
	}
	if !strings.Contains(pe.Stack, "goroutine") {
		t.Fatal("panic error carries no stack trace")
	}

	plain := errors.New("plain")
	calls := 0
	if err := RunHardened(func() error { calls++; return plain }); err != plain {
		t.Fatalf("got %v, want the function's own error", err)
	}
	if calls != 1 {
		t.Fatalf("function ran %d times, want once", calls)
	}
	if err := RunHardened(func() error { return nil }); err != nil {
		t.Fatalf("got %v, want nil", err)
	}
}

// Eight workers and one must produce identical results — the merge is
// slot-ordered, not completion-ordered. Table 1's cells of one
// replication run on different workers against its one prepared trace.
func TestParallelDeterminism(t *testing.T) {
	s := testSpec()
	s.Capacities = []float64{150, 600}

	old := Parallelism
	defer func() { Parallelism = old }()
	run := func(workers int) (*MissRateResult, *MinCapacityResult) {
		Parallelism = workers
		mr, err := MissRateSweep(s, []string{"lsa", "ea-dvfs"})
		if err != nil {
			t.Fatal(err)
		}
		mc, err := MinCapacity(s, []float64{0.3, 0.5, 0.7}, []string{"lsa", "ea-dvfs"})
		if err != nil {
			t.Fatal(err)
		}
		return mr, mc
	}

	par, parMC := run(8)
	ser, serMC := run(1)
	for name := range par.Rates {
		for i := range par.Rates[name] {
			if par.Rates[name][i] != ser.Rates[name][i] {
				t.Fatalf("%s[%d]: 8 workers %v != 1 worker %v", name, i, par.Rates[name][i], ser.Rates[name][i])
			}
		}
	}
	if !reflect.DeepEqual(parMC, serMC) {
		t.Fatalf("Table 1: 8 workers %+v != 1 worker %+v", parMC, serMC)
	}
}
