package main

import (
	"fmt"
	"os"
	"time"

	"github.com/eadvfs/eadvfs/internal/experiment"
)

// etaAlpha is the EWMA weight of the newest throughput observation. At
// 0.2 a single straggler batch moves the estimate ~20% of the way toward
// its instantaneous rate instead of yanking the ETA around, while a real
// slowdown converges within a handful of updates.
const etaAlpha = 0.2

// etaTracker estimates time-to-completion from an exponentially weighted
// moving average of throughput. All arithmetic runs on differences of
// time.Time values from the same clock, so a readings sequence from
// time.Now — which carries Go's monotonic reading — is immune to
// wall-clock steps (NTP jumps, suspend/resume); tests inject synthetic
// timestamps instead.
type etaTracker struct {
	alpha    float64   // EWMA weight, (0, 1]; zero means etaAlpha
	rate     float64   // smoothed throughput, runs per second
	lastDone int       // done count at the previous observation
	lastT    time.Time // timestamp of the previous observation
	primed   bool      // rate holds at least one observation
}

// update folds one progress report into the estimate and renders it:
// "--" before any throughput is observable, "done" at completion, else a
// rounded duration. A done count at or below the previous one means a new
// batch started; the smoothed rate deliberately survives the reset — the
// workers didn't change, only the counter did.
func (t *etaTracker) update(done, total int, now time.Time) string {
	if done <= t.lastDone || t.lastT.IsZero() {
		// New batch (or first observation): this report becomes the
		// baseline; throughput resumes accumulating from the next one.
		t.lastDone = done
		t.lastT = now
	}
	alpha := t.alpha
	if alpha <= 0 || alpha > 1 {
		alpha = etaAlpha
	}
	if dt := now.Sub(t.lastT); dt > 0 && done > t.lastDone {
		inst := float64(done-t.lastDone) / dt.Seconds()
		if t.primed {
			t.rate = float64(alpha*inst) + float64((1-alpha)*t.rate)
		} else {
			t.rate = inst
			t.primed = true
		}
		t.lastDone = done
		t.lastT = now
	}
	switch {
	case done >= total:
		return "done"
	case !t.primed || t.rate <= 0:
		return "--"
	}
	left := time.Duration(float64(total-done) / t.rate * float64(time.Second))
	return left.Round(time.Second).String()
}

// startProgress installs a live progress reporter on the experiment
// harness: a single stderr line, rewritten in place after each finished
// run, showing runs done / total, an EWMA-smoothed ETA, and how many runs
// degraded under injected faults. It is disabled with -quiet or when
// stderr is not a terminal (CI logs stay clean), in which case the
// returned stop function is a no-op.
//
// Each parallel batch (a sweep may run several) restarts the done/total
// pair; the ETA always refers to the current batch, but the smoothed
// throughput carries across batches. Updates are throttled so the
// reporter stays off the workers' critical path.
func startProgress(quiet bool) (stop func()) {
	if quiet || !stderrIsTerminal() {
		return func() {}
	}

	var (
		eta     etaTracker
		last    time.Time
		printed bool
	)
	experiment.Progress = func(done, total int) {
		now := time.Now()
		// Throttle rewrites, but never drop an observation: the tracker
		// sees every report so the EWMA stays honest; always draw the
		// final state of a batch.
		s := eta.update(done, total, now)
		if done < total && now.Sub(last) < 100*time.Millisecond {
			return
		}
		last = now
		fmt.Fprintf(os.Stderr, "\r\x1b[2K%d/%d runs  eta %s  degraded %d",
			done, total, s, experiment.DegradedRuns.Load())
		printed = true
	}
	return func() {
		experiment.Progress = nil
		if printed {
			fmt.Fprintln(os.Stderr)
		}
	}
}

// stderrIsTerminal reports whether stderr is a character device — the
// stdlib-only TTY test (no syscall package games, no external deps).
func stderrIsTerminal() bool {
	fi, err := os.Stderr.Stat()
	if err != nil {
		return false
	}
	return fi.Mode()&os.ModeCharDevice != 0
}
