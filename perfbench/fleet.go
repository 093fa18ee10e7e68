package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"github.com/eadvfs/eadvfs/internal/experiment"
	"github.com/eadvfs/eadvfs/internal/fabric"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/rng"
	"github.com/eadvfs/eadvfs/internal/service"
)

// Fleet workload shape: two workers with one engine slot each, and every
// fourth op a rerun of the previous spec.
const (
	fleetWorkers     = 2
	fleetRerunEvery  = 4
	fleetDigestOps   = 16
	fleetLocalChecks = 2 // seeds recomputed locally after the window
)

// fleetFixture is two in-process easerve workers and the coordinators
// that drive them: a plain one, and in traced runs a second one with span
// collection and a timed transport. Both route over the same ring, so a
// rerun lands on the same worker whichever coordinator sends it.
type fleetFixture struct {
	servers []*httptest.Server
	timers  []*handlerTimer // per worker; nil untraced
	client  *http.Client
	plain   *fabric.Coordinator
	traced  *fabric.Coordinator
	spans   *obs.Recorder
	timed   *timedTransport
}

func (f *fleetFixture) close() {
	f.client.CloseIdleConnections()
	for _, s := range f.servers {
		s.Close()
	}
}

func newFleetFixture(trace bool) (*fleetFixture, error) {
	f := &fleetFixture{client: newClient()}
	var urls []string
	for w := 0; w < fleetWorkers; w++ {
		var h http.Handler = service.New(service.Options{Workers: 1}).Handler()
		if trace {
			t := &handlerTimer{next: h}
			f.timers = append(f.timers, t)
			h = t
		}
		s := httptest.NewServer(h)
		f.servers = append(f.servers, s)
		urls = append(urls, s.URL)
	}
	transport := &fabric.HTTPTransport{Client: f.client}
	var err error
	if f.plain, err = fabric.New(fabric.Options{Workers: urls, Transport: transport}); err != nil {
		f.close()
		return nil, err
	}
	if trace {
		f.spans = obs.NewRecorder()
		f.timed = &timedTransport{inner: transport}
		if f.traced, err = fabric.New(fabric.Options{Workers: urls, Transport: f.timed, Trace: f.spans}); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

var errIncomplete = errors.New("fleet sweep came back incomplete")

// fleetOp runs one distributed miss-rate sweep and returns the merged
// result's JSON.
func fleetOp(c *fabric.Coordinator, seed uint64) ([]byte, *fabric.SweepResult, error) {
	res, err := c.RunSweep(context.Background(), "missrate", missRateSpec(seed), sweepPolicies)
	if err != nil {
		return nil, nil, err
	}
	if res.Incomplete > 0 || res.Merged == nil || res.Merged.MissRate == nil {
		return nil, res, errIncomplete
	}
	b, err := json.Marshal(res.Merged.MissRate)
	return b, res, err
}

func runFleet(o options) (*report, error) {
	r := newReport()
	cal := &calibrator{}
	f, err := setup(r, cal, func(k int) (*fleetFixture, error) {
		f, err := newFleetFixture(o.trace)
		if err != nil {
			return nil, err
		}
		if _, _, err := fleetOp(f.plain, opSeed(o.seed, streamWarmup, k)); err != nil {
			f.close()
			return nil, err
		}
		return f, nil
	}, (*fleetFixture).close)
	if err != nil {
		return nil, err
	}
	defer f.close()
	for _, t := range f.timers {
		t.take() // the warm-up's requests
	}

	dig := newDigester(fleetDigestOps)
	merged := map[uint64][]byte{} // seed → merged JSON
	var seeds []uint64            // seeds of first runs, in op order
	var ops []timed
	var tr fleetTrace
	m := startMeter()
	n := closedLoop(o.seconds, cal, func(i int) {
		seed := opSeed(o.seed, streamOps, i)
		rerun := i%fleetRerunEvery == fleetRerunEvery-1
		if rerun {
			seed = opSeed(o.seed, streamOps, i-1)
		}
		// Traced runs alternate blocks of fleetRerunEvery ops, so both
		// halves hold the same mix of first runs and reruns.
		c, traced := f.plain, f.traced != nil && (i/fleetRerunEvery)%2 == 1
		if traced {
			c = f.traced
		}
		start := time.Now()
		b, res, err := fleetOp(c, seed)
		wall := time.Since(start)
		r.attempted++
		if err != nil {
			r.failed++
			r.check("fleet.op", false, "op %d: %v", i, err)
			return
		}
		if prev, ok := merged[seed]; ok && !bytes.Equal(prev, b) {
			r.failed++
			r.check("fleet.rerun", false, "op %d: the rerun of seed %d merged different bytes", i, seed)
		}
		if !rerun {
			seeds = append(seeds, seed)
		}
		merged[seed] = b
		dig.add(i, b)
		ops = append(ops, timed{start, wall})
		if f.traced != nil {
			tr.op(f, res, wall, traced, rerun)
		}
	})
	m.finish(r, cal, n)
	dig.finish(r)

	// The merge must be byte-identical to a single-node sweep of the same
	// spec: recompute sampled seeds locally.
	pick := rng.New(o.seed).Child(streamSample)
	for k := 0; k < fleetLocalChecks && len(seeds) > 0; k++ {
		seed := seeds[pick.Intn(len(seeds))]
		local, err := experiment.MissRateSweep(missRateSpec(seed), sweepPolicies)
		var want []byte
		if err == nil {
			want, err = json.Marshal(local)
		}
		ok := err == nil && bytes.Equal(want, merged[seed])
		r.check("fleet.local", ok, "seed %d: merged sweep %s", seed, verdict(ok, err, "the single-node sweep"))
	}

	cal.check(r)
	r.setClosedLoop(cal, ops)
	if f.traced != nil {
		tr.report(r, f.spans.Spans())
	}
	return r, nil
}

// fleetTrace accumulates a traced fleet run.
type fleetTrace struct {
	traced, untraced []float64 // op wall times, ms
	selfMs           []float64 // traced ops: RunSweep wall minus the union of its attempts
	attempts         []attemptRec
	handled          []handled
	perWorker        [fleetWorkers]int
	shards, tries    int
	hedges, ops      int
	rerunHits        int
	rerunLookups     int
}

func (t *fleetTrace) op(f *fleetFixture, res *fabric.SweepResult, wall time.Duration, traced, rerun bool) {
	t.ops++
	if traced {
		t.traced = append(t.traced, ms(wall))
		at := f.timed.take()
		t.selfMs = append(t.selfMs, ms(wall-union(at)))
		t.attempts = append(t.attempts, at...)
	} else {
		t.untraced = append(t.untraced, ms(wall))
	}
	for _, so := range res.Shards {
		t.shards++
		t.tries += so.Attempts
		if so.Hedged {
			t.hedges++
		}
	}
	for w, timer := range f.timers {
		for _, h := range timer.take() {
			if h.path != "/v1/sweep" {
				continue
			}
			t.perWorker[w]++
			t.handled = append(t.handled, h)
			if rerun {
				t.rerunLookups++
				if h.cache == "hit" {
					t.rerunHits++
				}
			}
		}
	}
}

func (t *fleetTrace) report(r *report, spans []obs.Span) {
	if len(t.traced) == 0 || len(t.untraced) == 0 {
		return
	}
	r.set("trace.overhead_ratio", median(t.traced)/median(t.untraced), len(t.traced))
	r.set("fabric.coordinator_self_ms", median(t.selfMs), len(t.selfMs))
	r.set("fabric.attempts_per_shard", float64(t.tries)/float64(t.shards), t.shards)
	r.set("fabric.hedges_per_op", float64(t.hedges)/float64(t.ops), t.ops)
	if t.rerunLookups > 0 {
		r.set("fabric.affinity_hit_ratio", float64(t.rerunHits)/float64(t.rerunLookups), t.rerunLookups)
	}
	lo, hi := t.perWorker[0], t.perWorker[0]
	for _, c := range t.perWorker {
		lo, hi = min(lo, c), max(hi, c)
	}
	if hi > 0 {
		r.set("fabric.worker_balance", float64(lo)/float64(hi), lo+hi)
	}

	server := map[string]time.Duration{}
	var sweep []float64
	for _, h := range t.handled {
		sweep = append(sweep, ms(h.dur))
		if h.id != "" {
			server[h.id] = h.dur
		}
	}
	var attempt, overhead []float64
	for _, a := range t.attempts {
		d := a.end.Sub(a.start)
		attempt = append(attempt, ms(d))
		if s, ok := server[a.id]; ok {
			overhead = append(overhead, ms(d-s))
		}
	}
	var admission, engine []float64
	phases := map[string]float64{}
	for _, sp := range spans {
		switch {
		case sp.Service == "easerve" && sp.Name == "admission":
			admission = append(admission, ms(sp.Duration))
		case sp.Service == "easerve" && sp.Name == "engine":
			engine = append(engine, ms(sp.Duration))
		case sp.Service == "experiment":
			// A shard's solar realization is its own span; the single-node
			// sweep counts it in plan, and so does this total.
			name := sp.Name
			if name == "realize-solar" {
				name = "plan"
			}
			phases[name] += ms(sp.Duration)
		}
	}
	r.setP50("service.sweep.server_p50_ms", sweep)
	r.setP50("fabric.attempt_p50_ms", attempt)
	r.setP50("net.client_overhead_p50_ms", overhead)
	r.setP50("service.admission_wait_p50_ms", admission)
	r.setP50("service.engine_p50_ms", engine)
	n := len(t.traced)
	for _, p := range []string{"plan", "simulate", "aggregate"} {
		r.set("experiment."+p+".ms", phases[p]/float64(n), n)
	}
}

// attemptRec is one shard attempt as the coordinator's transport saw it.
type attemptRec struct {
	id         string // the attempt's traceparent
	start, end time.Time
}

// timedTransport times every shard attempt of the traced coordinator.
type timedTransport struct {
	inner fabric.Transport
	mu    sync.Mutex
	recs  []attemptRec
}

func (t *timedTransport) Do(ctx context.Context, worker string, body []byte) (*fabric.Envelope, error) {
	start := time.Now()
	env, err := t.inner.Do(ctx, worker, body)
	rec := attemptRec{start: start, end: time.Now()}
	if sc, ok := obs.SpanFromContext(ctx); ok {
		rec.id = sc.Traceparent()
	}
	t.mu.Lock()
	t.recs = append(t.recs, rec)
	t.mu.Unlock()
	return env, err
}

func (t *timedTransport) Healthy(ctx context.Context, worker string) error {
	return t.inner.Healthy(ctx, worker)
}

// take returns and clears the attempts so far.
func (t *timedTransport) take() []attemptRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	recs := t.recs
	t.recs = nil
	return recs
}

// union returns the total time covered by at least one attempt.
func union(recs []attemptRec) time.Duration {
	s := append([]attemptRec(nil), recs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start.Before(s[j].start) })
	var total time.Duration
	var end time.Time
	for _, a := range s {
		if a.start.After(end) {
			total += a.end.Sub(a.start)
			end = a.end
		} else if a.end.After(end) {
			total += a.end.Sub(end)
			end = a.end
		}
	}
	return total
}
