package main

import (
	"bytes"
	"fmt"
	"go/parser"
	"go/token"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Host-speed calibration.
//
// The benchmark runs on shared hosts whose speed moves under it: on a
// 2-vCPU Xeon (Sapphire Rapids) VM the same engine op took 1.0× to 2.1×
// its fastest time depending on what other tenants did, in regimes lasting
// seconds to minutes, so raw medians of two runs ten minutes apart
// disagreed by more than any useful bound. Every timing the end-to-end
// metrics report is therefore scaled to a reference host speed. A fixed
// calibration loop — go/parser parsing a generated Go file, code this
// repository does not own — runs between ops (or, for serve, on a timer),
// and each timing is multiplied by refCalibNs over the median of the
// calibration samples nearest to it in time. A change to the program moves
// the op times and not the loop, so it shows in full; a change of host
// speed moves both and cancels. The human-readable output prints the raw
// value beside each scaled one.
const (
	calibPeriod  = 50 * time.Millisecond // between calibration samples
	calibNearest = 9                     // samples whose median scales one timing
	refCalibNs   = 450000                // the loop's time between ops on the reference host at its fastest
)

// calibSource is the calibration loop's input: 24 small generated
// functions, about 8 KB of Go.
var calibSource = func() []byte {
	var b bytes.Buffer
	b.WriteString("package calib\n\nimport \"fmt\"\n\n")
	for i := 0; i < 24; i++ {
		fmt.Fprintf(&b, `// f%[1]d folds xs.
func f%[1]d(xs []float64, k int) (float64, error) {
	var s float64
	for i, x := range xs {
		switch {
		case i%%%[2]d == 0:
			s += x * %[1]d.5
		case x > float64(k):
			s -= x / 3
		default:
			s = s*0.5 + float64(len(xs))
		}
	}
	if s < 0 {
		return 0, fmt.Errorf("f%[1]d: %%v", s)
	}
	return s, nil
}

`, i, i+2)
	}
	return b.Bytes()
}()

// calibrateOnce runs the calibration loop once and returns the CPU time
// it took. CPU time of a goroutine locked to its thread leaves out the
// time the Go scheduler gives the workload's own goroutines, which would
// otherwise tie the measure of host speed to the workload's load; on this
// kind of VM it still counts the time the host takes the vCPU away.
func calibrateOnce() (time.Duration, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start, err := threadCPU()
	if err != nil {
		return 0, err
	}
	if _, err := parser.ParseFile(token.NewFileSet(), "calib.go", calibSource, parser.ParseComments); err != nil {
		return 0, err
	}
	end, err := threadCPU()
	return end - start, err
}

type calSample struct {
	at  time.Time // midpoint of the sample
	ns  float64
	mem float64 // memory the Go runtime held from the OS after the sample, bytes
}

// calibrator collects calibration samples over a run; it is safe for
// concurrent use.
type calibrator struct {
	mu      sync.Mutex
	last    time.Time
	samples []calSample
	err     error
}

// warm runs the loop a few times unrecorded: a process's first parses pay
// for cold caches and heap growth, which is not host speed.
func (c *calibrator) warm() {
	for i := 0; i < 5; i++ {
		if _, err := calibrateOnce(); err != nil {
			c.mu.Lock()
			c.err = err
			c.mu.Unlock()
		}
	}
}

// sample runs the loop once and records it.
func (c *calibrator) sample() {
	start := time.Now()
	d, err := calibrateOnce()
	end := time.Now()
	mem := heldMemory()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.last = end
	if err != nil {
		c.err = err
		return
	}
	c.samples = append(c.samples, calSample{at: start.Add(end.Sub(start) / 2), ns: float64(d), mem: mem})
}

// window returns the medians, over the samples taken between from and to,
// of the memory the Go runtime held from the OS, in MB, and of the host
// speed relative to the reference (refCalibNs over the sample's time),
// with the number of those samples.
func (c *calibrator) window(from, to time.Time) (memMB, speed float64, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var mem, sp []float64
	for _, s := range c.samples {
		if !s.at.Before(from) && !s.at.After(to) {
			mem = append(mem, s.mem/(1<<20))
			sp = append(sp, refCalibNs/s.ns)
		}
	}
	return median(mem), median(sp), len(mem)
}

// tick samples when calibPeriod has passed since the last sample; closed
// loops call it between ops, so a sample never overlaps an op.
func (c *calibrator) tick() {
	c.mu.Lock()
	due := time.Since(c.last) >= calibPeriod
	c.mu.Unlock()
	if due {
		c.sample()
	}
}

// every samples on its own goroutine every calibPeriod until the returned
// stop function is called; stop returns once the goroutine has exited.
func (c *calibrator) every() (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(calibPeriod)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				c.sample()
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// scale returns the factor that converts a timing taken at time at to the
// reference host speed: refCalibNs over the median of the calibNearest
// samples nearest to at. With no samples it returns 1.
func (c *calibrator) scale(at time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.samples
	if len(s) == 0 {
		return 1
	}
	i := sort.Search(len(s), func(i int) bool { return !s[i].at.Before(at) })
	lo, hi := i, i // the window is s[lo:hi]
	for hi-lo < calibNearest && (lo > 0 || hi < len(s)) {
		switch {
		case lo == 0:
			hi++
		case hi == len(s):
			lo--
		case at.Sub(s[lo-1].at) <= s[hi].at.Sub(at):
			lo--
		default:
			hi++
		}
	}
	ns := make([]float64, 0, hi-lo)
	for _, x := range s[lo:hi] {
		ns = append(ns, x.ns)
	}
	return refCalibNs / median(ns)
}

// latencies returns the ops' times in ms, scaled to the reference host
// speed at each op's midpoint, and raw.
func (c *calibrator) latencies(ops []timed) (scaled, raw []float64) {
	scaled = make([]float64, len(ops))
	raw = make([]float64, len(ops))
	for i, op := range ops {
		raw[i] = ms(op.d)
		scaled[i] = raw[i] * c.scale(op.start.Add(op.d/2))
	}
	return scaled, raw
}

// check reports whether every calibration sample succeeded.
func (c *calibrator) check(r *report) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ok := c.err == nil && len(c.samples) > 0
	r.check("calibration", ok, "%d samples, error %v", len(c.samples), c.err)
}
