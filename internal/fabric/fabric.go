// Package fabric distributes evaluation sweeps across a fleet of easerve
// workers and keeps them correct under partial failure (DESIGN.md §13).
// A sweep is planned into disjoint shards (experiment.PlanShards), each
// shard is posted to a worker over the /v1/sweep protocol, and the shard
// results are merged bit-reproducibly: merge placement is fixed by shard
// coordinates, so the merged result is byte-identical to a single-node
// run no matter which workers answered in what order.
//
// The robustness machinery lives in the client:
//
//   - Shards route by consistent hash of their request digest, so a
//     repeated or retried sweep lands each shard on the worker whose
//     single-flight cache owns that digest.
//   - Failed attempts retry with exponential backoff + deterministic
//     jitter on the *next* worker in the shard's ring sequence, honoring
//     Retry-After as a backoff floor when a worker sheds load.
//   - Straggler shards hedge: after HedgeAfter with no answer, a second
//     attempt races on a different worker; the first response wins and
//     the loser is cancelled through its context.
//   - Per-worker circuit breakers (threshold/cooldown/half-open trial)
//     are fed by both request outcomes and background /healthz probes,
//     so a dead worker stops receiving attempts almost immediately.
//   - When a shard exhausts its attempts, the sweep degrades gracefully:
//     with AllowPartial the surviving shards merge into a partial
//     aggregate with explicit Incomplete accounting; otherwise the sweep
//     fails loudly.
package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eadvfs/eadvfs/internal/digest"
	"github.com/eadvfs/eadvfs/internal/experiment"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/rng"
	"github.com/eadvfs/eadvfs/internal/service"
)

// Options configures a Coordinator. Zero values take the documented
// defaults.
type Options struct {
	// Workers are the easerve base URLs ("http://host:8080"). Required.
	Workers []string
	// Transport delivers shard requests (default HTTPTransport).
	Transport Transport
	// ShardsPerWorker scales the plan: the sweep splits into
	// len(Workers)*ShardsPerWorker shards (default 2). More shards mean
	// finer rebalancing when a worker dies, at more per-request overhead.
	ShardsPerWorker int
	// MaxAttempts bounds tries per shard, first attempt included
	// (default 4).
	MaxAttempts int
	// HedgeAfter launches a racing attempt on another worker when a shard
	// has been in flight this long (default 2s; negative disables).
	HedgeAfter time.Duration
	// RequestTimeout bounds each attempt (default 120s).
	RequestTimeout time.Duration
	// AllowPartial degrades to a partial merge with Incomplete accounting
	// when shards exhaust their attempts, instead of failing the sweep.
	AllowPartial bool
	// Trace, when non-nil, receives the coordinator's spans — one root
	// per sweep, one child per shard, one grandchild per attempt — plus
	// the worker-side spans shipped back in X-Trace-Spans headers, all
	// under one propagated trace ID (DESIGN.md §15). Nil disables
	// tracing: attempts then carry no traceparent and workers serve
	// untraced.
	Trace obs.SpanSink
	// Logf, when set, receives one line per retry/hedge/breaker event.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Transport == nil {
		o.Transport = &HTTPTransport{}
	}
	if o.ShardsPerWorker <= 0 {
		o.ShardsPerWorker = 2
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.HedgeAfter == 0 {
		o.HedgeAfter = 2 * time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 120 * time.Second
	}
	return o
}

// The failure ladder's fixed timings (DESIGN.md §13.3).
const (
	// baseBackoff is the first retry delay; it doubles per retry up to
	// maxBackoff, with ±50% deterministic jitter. A worker's Retry-After
	// hint floors the delay.
	baseBackoff = 100 * time.Millisecond
	maxBackoff  = 5 * time.Second
	// breakerThreshold consecutive failures open a worker's breaker;
	// breakerCooldown later it half-opens for one trial.
	breakerThreshold = 3
	breakerCooldown  = 5 * time.Second
	// probeInterval paces the background /healthz probes that feed the
	// breakers.
	probeInterval = time.Second
)

// ladder carries the failure ladder's timings into a Coordinator. New
// uses the constants above; the package's tests shrink them to
// milliseconds through newCoordinator.
type ladder struct {
	baseBackoff, maxBackoff time.Duration
	threshold               int
	cooldown                time.Duration
	probe                   time.Duration // <= 0 disables the probes
}

// Coordinator fans sweeps out to the worker pool. Create with New; safe
// for concurrent RunSweep calls (breaker and metric state is shared, as
// it should be — they describe the workers, not the sweep).
type Coordinator struct {
	opts     Options
	ladder   ladder
	reg      *obs.Registry
	workers  []string
	ring     *ring
	breakers []*breaker

	jmu    sync.Mutex
	jitter *rng.RNG

	retries      *obs.Counter
	hedges       *obs.Counter
	shardsOK     *obs.Counter
	shardsFailed *obs.Counter
	breakerOpens *obs.Counter
	probeFails   *obs.Counter
	shardSecs    *obs.Summary
	attemptSecs  *obs.HistogramMetric
	breakerGauge []*obs.Gauge
}

// New builds a Coordinator over the given worker pool.
func New(opts Options) (*Coordinator, error) {
	return newCoordinator(opts, ladder{baseBackoff, maxBackoff, breakerThreshold, breakerCooldown, probeInterval})
}

func newCoordinator(opts Options, l ladder) (*Coordinator, error) {
	if len(opts.Workers) == 0 {
		return nil, errors.New("fabric: no workers configured")
	}
	o := opts.withDefaults()
	reg := obs.NewRegistry()
	c := &Coordinator{
		opts:    o,
		ladder:  l,
		reg:     reg,
		workers: append([]string(nil), o.Workers...),
		ring:    newRing(o.Workers),
		jitter:  rng.New(1),
	}
	c.retries = reg.Counter("fabric_retries_total", "shard attempts beyond the first (excluding hedges)")
	c.hedges = reg.Counter("fabric_hedges_total", "racing attempts launched for straggler shards")
	const shardsHelp = "shards by final outcome"
	c.shardsOK = reg.Counter(obs.Labeled("fabric_shards_total", "outcome", "ok"), shardsHelp)
	c.shardsFailed = reg.Counter(obs.Labeled("fabric_shards_total", "outcome", "failed"), shardsHelp)
	c.breakerOpens = reg.Counter("fabric_breaker_opens_total", "circuit-breaker trips across all workers")
	c.probeFails = reg.Counter("fabric_probe_failures_total", "failed /healthz probes")
	c.shardSecs = reg.Summary("fabric_shard_seconds", "wall time from first attempt to shard completion")
	c.attemptSecs = reg.Histogram("fabric_attempt_seconds", "per-attempt latency", 0, 30, 15)
	c.breakers = make([]*breaker, len(c.workers))
	c.breakerGauge = make([]*obs.Gauge, len(c.workers))
	for i, w := range c.workers {
		c.breakers[i] = newBreaker(l.threshold, l.cooldown, nil)
		c.breakerGauge[i] = reg.Gauge(obs.Labeled("fabric_breaker_state", "worker", w),
			"breaker state per worker: 0 closed, 1 open, 2 half-open")
	}
	return c, nil
}

// Registry returns the coordinator's metrics registry.
func (c *Coordinator) Registry() *obs.Registry { return c.reg }

// ShardOutcome records how one shard fared: who finally served it, how
// many attempts (stalls with no admitting worker included) it cost,
// whether a hedge was launched, and the terminal error if it was lost.
type ShardOutcome struct {
	Shard    experiment.Shard
	Key      string // request digest = routing key = worker cache key
	Worker   string // serving worker ("" when the shard failed)
	Attempts int
	Hedged   bool
	Err      error
}

// SweepResult is a distributed sweep's outcome: the merged aggregate plus
// per-shard accounting. Incomplete counts shards that exhausted their
// attempts — zero unless Options.AllowPartial let a damaged sweep
// degrade; Merged.MissingCells then quantifies the lost grid coverage.
type SweepResult struct {
	Kind       string
	Spec       experiment.Spec
	Policies   []string
	Merged     *experiment.MergedSweep
	Shards     []ShardOutcome
	Incomplete int
}

// shardPlan is one shard plus its canonical wire form.
type shardPlan struct {
	shard experiment.Shard
	body  []byte
	key   string
}

// RunSweep distributes one sweep over the pool and merges the shards.
// The spec is normalized exactly as a worker normalizes it
// (service.NormalizeSpec), so every shard request is already canonical
// and its digest is the worker-side cache key.
func (c *Coordinator) RunSweep(ctx context.Context, kind string, spec experiment.Spec, policies []string) (*SweepResult, error) {
	spec = service.NormalizeSpec(spec)
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(policies) == 0 {
		return nil, errors.New("fabric: no policies requested")
	}
	shards, err := experiment.PlanShards(kind, spec, len(c.workers)*c.opts.ShardsPerWorker)
	if err != nil {
		return nil, err
	}
	plans := make([]shardPlan, len(shards))
	for i := range shards {
		body, err := json.Marshal(service.SweepRequest{Kind: kind, Spec: spec, Policies: policies, Shard: &shards[i]})
		if err != nil {
			return nil, err
		}
		plans[i] = shardPlan{shard: shards[i], body: body, key: digest.Compact(body)}
	}

	pctx, stopProbes := context.WithCancel(ctx)
	defer stopProbes()
	if c.ladder.probe > 0 {
		go c.probeLoop(pctx)
	}

	// Root span of the whole distributed sweep; every shard, attempt and
	// worker span below shares its trace ID.
	root := obs.StartSpan(c.opts.Trace, "eactl", "sweep", obs.SpanContext{})
	root.SetAttr("kind", kind)
	root.SetInt("shards", int64(len(plans)))
	root.SetInt("workers", int64(len(c.workers)))
	defer root.End()

	out := &SweepResult{Kind: kind, Spec: spec, Policies: policies, Shards: make([]ShardOutcome, len(plans))}
	results := make([]*experiment.ShardResult, len(plans))
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], out.Shards[i] = c.runShard(ctx, plans[i], root.Context())
		}(i)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i := range out.Shards {
		if out.Shards[i].Err != nil {
			out.Incomplete++
		}
	}
	root.SetInt("incomplete", int64(out.Incomplete))
	merged, err := experiment.MergeShards(kind, spec, policies, results, c.opts.AllowPartial)
	if err != nil {
		if out.Incomplete > 0 {
			return nil, fmt.Errorf("fabric: %d/%d shards lost (first error: %w)",
				out.Incomplete, len(plans), firstShardError(out.Shards))
		}
		return nil, err
	}
	out.Merged = merged
	return out, nil
}

func firstShardError(shards []ShardOutcome) error {
	for i := range shards {
		if shards[i].Err != nil {
			return shards[i].Err
		}
	}
	return errors.New("unknown shard failure")
}

// attemptResult is one worker's answer for a shard attempt.
type attemptResult struct {
	worker  int
	res     *experiment.ShardResult
	err     error
	started time.Time
}

// runShard drives one shard to completion through the retry/hedge/breaker
// state machine. Exactly one goroutine runs this per shard; attempt
// goroutines communicate only through the buffered results channel, and
// the shard context cancels every losing attempt the moment one wins.
func (c *Coordinator) runShard(ctx context.Context, p shardPlan, parent obs.SpanContext) (*experiment.ShardResult, ShardOutcome) {
	out := ShardOutcome{Shard: p.shard, Key: p.key}
	start := time.Now()
	defer func() { c.shardSecs.Observe(time.Since(start).Seconds()) }()

	// One span covers the shard from first launch to final outcome; each
	// attempt nests under it with its worker choice, retry ordinal,
	// hedge flag and ring position, and the accumulated backoff lands on
	// the shard span at the end.
	span := obs.StartSpan(c.opts.Trace, "eactl", "shard", parent)
	span.SetInt("shard", int64(p.shard.Index))
	span.SetAttr("key", p.key)
	var backoffTotal time.Duration

	seq := c.ring.sequence(p.key)
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Buffered for every attempt that could ever be launched, so a losing
	// hedge's send never blocks after runShard returns.
	resc := make(chan attemptResult, c.opts.MaxAttempts+1)
	inflight := make(map[int]bool, 2)
	var won atomic.Bool // set by the one attempt whose success counts
	cursor := 0

	finishSpan := func(outcome string) {
		span.SetAttr("outcome", outcome)
		span.SetInt("attempts", int64(out.Attempts))
		span.SetBool("hedged", out.Hedged)
		span.SetInt("backoff_ns", int64(backoffTotal))
		if out.Worker != "" {
			span.SetAttr("worker", out.Worker)
		}
		span.End()
	}

	fail := func(err error) (*experiment.ShardResult, ShardOutcome) {
		out.Err = err
		c.shardsFailed.Inc()
		c.logf("shard %d lost after %d attempts: %v", p.shard.Index, out.Attempts, err)
		finishSpan("failed")
		return nil, out
	}

	// launch starts an attempt on the next ring-sequence worker that is
	// not already serving this shard and whose breaker admits it; false
	// when no worker qualifies right now.
	launch := func(hedge bool) bool {
		for n := 0; n < len(seq); n++ {
			pos := cursor % len(seq)
			w := seq[pos]
			cursor++
			if inflight[w] || !c.breakers[w].allow() {
				continue
			}
			inflight[w] = true
			out.Attempts++
			asp := obs.StartSpan(c.opts.Trace, "eactl", "attempt", span.Context())
			asp.SetAttr("worker", c.workers[w])
			asp.SetInt("try", int64(out.Attempts))
			asp.SetInt("ring_pos", int64(pos))
			asp.SetBool("hedge", hedge)
			go c.attempt(sctx, w, p, asp, &won, resc)
			return true
		}
		return false
	}

	backoff := c.ladder.baseBackoff
	// nextBackoff sleeps the jittered current delay (flooring at min) and
	// doubles it; false on context cancellation.
	nextBackoff := func(min time.Duration) bool {
		d := c.jitterDelay(backoff)
		if d < min {
			d = min
		}
		if backoff *= 2; backoff > c.ladder.maxBackoff {
			backoff = c.ladder.maxBackoff
		}
		backoffTotal += d
		return sleepCtx(ctx, d)
	}
	// ensureLaunched keeps trying to start an attempt, counting stalls
	// (every worker breaker-open or busy) against the attempt budget so a
	// fully dead fleet fails the shard instead of spinning forever.
	ensureLaunched := func() bool {
		for !launch(false) {
			out.Attempts++
			if out.Attempts >= c.opts.MaxAttempts {
				return false
			}
			if !nextBackoff(0) {
				return false
			}
		}
		return true
	}

	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	if c.opts.HedgeAfter > 0 {
		hedgeTimer = time.NewTimer(c.opts.HedgeAfter)
		defer hedgeTimer.Stop()
		hedgeC = hedgeTimer.C
	}
	rearmHedge := func() {
		if hedgeTimer == nil {
			return
		}
		if !hedgeTimer.Stop() {
			select {
			case <-hedgeTimer.C:
			default:
			}
		}
		hedgeTimer.Reset(c.opts.HedgeAfter)
	}

	if !ensureLaunched() {
		return fail(errors.New("fabric: no worker available"))
	}
	var lastErr error
	for {
		select {
		case r := <-resc:
			delete(inflight, r.worker)
			c.attemptSecs.Observe(time.Since(r.started).Seconds())
			if r.err == nil {
				// First response wins; cancel (and ignore) any racer.
				cancel()
				out.Worker = c.workers[r.worker]
				c.shardsOK.Inc()
				finishSpan("ok")
				return r.res, out
			}
			lastErr = r.err
			if IsPermanent(r.err) {
				cancel()
				return fail(r.err)
			}
			c.logf("shard %d attempt on %s failed: %v", p.shard.Index, c.workers[r.worker], r.err)
			if len(inflight) > 0 {
				continue // the hedge racer is still running; let it finish
			}
			if out.Attempts >= c.opts.MaxAttempts {
				return fail(lastErr)
			}
			var shed *ShedError
			var floor time.Duration
			if errors.As(r.err, &shed) {
				floor = shed.RetryAfter
			}
			if !nextBackoff(floor) {
				return fail(ctx.Err())
			}
			c.retries.Inc()
			if !ensureLaunched() {
				return fail(lastErr)
			}
			rearmHedge()
		case <-hedgeC:
			if out.Attempts < c.opts.MaxAttempts && len(inflight) > 0 && launch(true) {
				c.hedges.Inc()
				out.Hedged = true
				c.logf("shard %d hedged after %s", p.shard.Index, c.opts.HedgeAfter)
			}
		case <-ctx.Done():
			return fail(ctx.Err())
		}
	}
}

// attempt posts the shard to one worker, classifies the outcome, feeds
// the worker's breaker, and reports on resc. A loss to a racing sibling
// (shard context cancelled, or won already set) does not penalize the
// breaker. The attempt span travels into the transport via the context
// (HTTPTransport turns it into a traceparent header) and is ended here
// with the outcome; the worker's own spans from the response envelope
// are forwarded to the trace sink, completing the stitched tree.
func (c *Coordinator) attempt(sctx context.Context, w int, p shardPlan, span *obs.ActiveSpan, won *atomic.Bool, resc chan<- attemptResult) {
	started := time.Now()
	actx, cancel := context.WithTimeout(sctx, c.opts.RequestTimeout)
	defer cancel()
	if sc := span.Context(); sc.Valid() {
		actx = obs.ContextWithSpan(actx, sc)
	}
	env, err := c.opts.Transport.Do(actx, c.workers[w], p.body)
	var res *experiment.ShardResult
	if err == nil {
		res, err = decodeShard(env, p)
	}
	switch {
	case err == nil:
		c.breakers[w].success()
		if !won.CompareAndSwap(false, true) {
			err = context.Canceled
		}
	case sctx.Err() != nil:
		// The shard is already decided (a sibling won or the sweep died);
		// this attempt's failure says nothing about the worker.
		err = sctx.Err()
	case IsPermanent(err):
		// The worker correctly refused a bad request; not its fault.
	default:
		c.noteFailure(w)
	}
	switch {
	case err == nil:
		span.SetAttr("outcome", "ok")
	case errors.Is(err, context.Canceled):
		// A hedged loser, cancelled mid-flight or answering too late.
		span.SetAttr("outcome", "cancelled")
	default:
		span.SetAttr("outcome", "error")
		span.SetAttr("error", err.Error())
	}
	span.End()
	if env != nil && c.opts.Trace != nil {
		for _, sp := range env.Spans {
			c.opts.Trace.OnSpan(sp)
		}
	}
	c.breakerGauge[w].Set(float64(c.breakers[w].currentState()))
	resc <- attemptResult{worker: w, res: res, err: err, started: started}
}

// decodeShard validates a worker envelope against the plan: the digest
// must be the routing key (worker and coordinator agree on the canonical
// request) and the payload must be this very shard's result. Violations
// are retryable — a confused worker should not poison the merge.
func decodeShard(env *Envelope, p shardPlan) (*experiment.ShardResult, error) {
	if env.Digest != p.key {
		return nil, fmt.Errorf("fabric: digest mismatch: worker reported %.12s, want %.12s", env.Digest, p.key)
	}
	var res experiment.ShardResult
	if err := json.Unmarshal(env.Result, &res); err != nil {
		return nil, fmt.Errorf("fabric: malformed shard payload: %w", err)
	}
	if res.Shard != p.shard {
		return nil, fmt.Errorf("fabric: worker answered shard %d, want %d", res.Shard.Index, p.shard.Index)
	}
	return &res, nil
}

// noteFailure feeds a breaker and counts the trip if this failure opened
// it.
func (c *Coordinator) noteFailure(w int) {
	before := c.breakers[w].currentState()
	c.breakers[w].failure()
	if before != breakerOpen && c.breakers[w].currentState() == breakerOpen {
		c.breakerOpens.Inc()
		c.logf("breaker opened for %s", c.workers[w])
	}
}

// probeLoop feeds the breakers from /healthz until its context dies: a
// failing probe counts like a failed request (a dead worker opens without
// burning sweep attempts), a passing probe lets an open breaker skip the
// rest of its cooldown.
func (c *Coordinator) probeLoop(ctx context.Context) {
	t := time.NewTicker(c.ladder.probe)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			for i := range c.workers {
				pctx, cancel := context.WithTimeout(ctx, c.ladder.probe)
				err := c.opts.Transport.Healthy(pctx, c.workers[i])
				cancel()
				if ctx.Err() != nil {
					return
				}
				if err != nil {
					c.probeFails.Inc()
					c.noteFailure(i)
				} else {
					c.breakers[i].probeOK()
				}
				c.breakerGauge[i].Set(float64(c.breakers[i].currentState()))
			}
		}
	}
}

// jitterDelay spreads d to [0.5d, 1.5d) with the coordinator's
// deterministic jitter stream, decorrelating retry storms across shards
// while keeping a coordinator's backoff schedule reproducible: the stream
// is seeded with 1.
func (c *Coordinator) jitterDelay(d time.Duration) time.Duration {
	c.jmu.Lock()
	f := 0.5 + c.jitter.Float64()
	c.jmu.Unlock()
	return time.Duration(float64(d) * f)
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}
