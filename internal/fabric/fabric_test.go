package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/eadvfs/eadvfs/internal/experiment"
	"github.com/eadvfs/eadvfs/internal/service"
)

func testSpec() experiment.Spec {
	s := experiment.DefaultSpec()
	s.Horizon = 1500
	s.Replications = 4
	s.Capacities = []float64{200, 1000}
	return s
}

var testPolicies = []string{"lsa", "ea-dvfs"}

// fastOptions returns coordinator options tuned for test time:
// millisecond hedges and a short attempt timeout.
func fastOptions(workers []string, tr Transport) Options {
	return Options{
		Workers:         workers,
		Transport:       tr,
		ShardsPerWorker: 2,
		MaxAttempts:     6,
		HedgeAfter:      25 * time.Millisecond,
		RequestTimeout:  2 * time.Second,
	}
}

// fastLadder is the failure ladder tuned for test time: millisecond
// backoffs and breaker cooldown, tight probe cadence.
var fastLadder = ladder{
	baseBackoff: time.Millisecond,
	maxBackoff:  10 * time.Millisecond,
	threshold:   3,
	cooldown:    20 * time.Millisecond,
	probe:       5 * time.Millisecond,
}

func singleNodeJSON(t *testing.T, kind string, s experiment.Spec, policies []string) string {
	t.Helper()
	s = service.NormalizeSpec(s)
	var v any
	var err error
	switch kind {
	case "missrate":
		v, err = experiment.MissRateSweep(s, policies)
	case "remaining":
		var m *experiment.MergedSweep
		if m, err = experiment.RunSweep(context.Background(), "remaining", s, policies); err == nil {
			v = m.Remaining
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func mergedJSON(t *testing.T, res *SweepResult) string {
	t.Helper()
	var v any
	switch res.Kind {
	case "missrate":
		v = res.Merged.MissRate
	case "remaining":
		v = res.Merged.Remaining
	}
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestRingSequenceCoversAllWorkersDeterministically(t *testing.T) {
	workers := []string{"http://a", "http://b", "http://c"}
	r1 := newRing(workers)
	r2 := newRing(workers)
	ownerCount := make([]int, len(workers))
	for _, key := range []string{"k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8", "k9", "k10"} {
		s1, s2 := r1.sequence(key), r2.sequence(key)
		if len(s1) != len(workers) {
			t.Fatalf("sequence(%q) has %d entries, want %d", key, len(s1), len(workers))
		}
		seen := map[int]bool{}
		for _, w := range s1 {
			if seen[w] {
				t.Fatalf("sequence(%q) repeats worker %d", key, w)
			}
			seen[w] = true
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("sequence(%q) not deterministic across ring builds", key)
			}
		}
		ownerCount[s1[0]]++
	}
	// With 10 keys and 64 vnodes each worker should own something.
	for i, n := range ownerCount {
		if n == 0 {
			t.Errorf("worker %d owns no keys out of 10 (degenerate ring)", i)
		}
	}
}

func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b := newBreaker(3, time.Minute, clock)

	if !b.allow() {
		t.Fatal("closed breaker refused")
	}
	b.failure()
	b.failure()
	if b.currentState() != breakerClosed {
		t.Fatal("breaker opened below threshold")
	}
	b.failure() // third consecutive failure trips it
	if b.currentState() != breakerOpen {
		t.Fatal("breaker not open after threshold failures")
	}
	if b.allow() {
		t.Fatal("open breaker admitted during cooldown")
	}

	now = now.Add(time.Minute) // cooldown elapsed: one half-open trial
	if !b.allow() {
		t.Fatal("half-open breaker refused the trial")
	}
	if b.allow() {
		t.Fatal("half-open breaker admitted a second concurrent trial")
	}
	b.failure() // trial failed: open again, fresh cooldown
	if b.currentState() != breakerOpen {
		t.Fatal("failed trial did not re-open")
	}
	if b.allow() {
		t.Fatal("re-opened breaker admitted immediately")
	}

	// A passing health probe skips the rest of the cooldown.
	b.probeOK()
	if b.currentState() != breakerHalfOpen {
		t.Fatal("probeOK did not half-open an open breaker")
	}
	if !b.allow() {
		t.Fatal("probe-recovered breaker refused the trial")
	}
	b.success()
	if b.currentState() != breakerClosed {
		t.Fatal("successful trial did not close")
	}

	// Consecutive-failure counting resets on success.
	b.failure()
	b.failure()
	b.success()
	b.failure()
	b.failure()
	if b.currentState() != breakerClosed {
		t.Fatal("failure streak survived an intervening success")
	}
}

// A healthy pool produces a merged result byte-identical to the
// single-node sweep, for both kinds.
func TestRunSweepHealthyPoolByteIdentical(t *testing.T) {
	spec := testSpec()
	workers := []string{"http://w0", "http://w1"}
	for _, kind := range experiment.SweepKinds() {
		_, tr := newFaultNet(7, map[string]*netWorker{workers[0]: {}, workers[1]: {}})
		c, err := newCoordinator(fastOptions(workers, tr), fastLadder)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.RunSweep(context.Background(), kind, spec, testPolicies)
		if err != nil {
			t.Fatalf("RunSweep(%s): %v", kind, err)
		}
		if res.Incomplete != 0 || res.Merged.MissingCells != 0 {
			t.Fatalf("healthy sweep incomplete: %d shards, %d cells", res.Incomplete, res.Merged.MissingCells)
		}
		if got, want := mergedJSON(t, res), singleNodeJSON(t, kind, spec, testPolicies); got != want {
			t.Fatalf("%s: distributed result differs from single-node run", kind)
		}
		for i, sh := range res.Shards {
			if sh.Worker == "" || sh.Err != nil {
				t.Fatalf("shard %d outcome %+v on a healthy pool", i, sh)
			}
		}
	}
}

// The acceptance scenario: three workers, one failing 30% of attempts
// with a drop/delay/5xx mix, another SIGKILLed mid-sweep — the sweep
// completes with zero incomplete shards and the merged result is
// byte-identical to the single-node output. Run under -race.
func TestRunSweepFaultMixAndKillByteIdentical(t *testing.T) {
	spec := testSpec()
	workers := []string{"http://alpha", "http://beta", "http://gamma"}
	flaky := &netWorker{
		FailRate: 0.3,
		Faults:   []fault{faultDrop, faultDelay, fault5xx},
		Delay:    40 * time.Millisecond,
	}
	victim := &netWorker{}
	// Seed 2's first draw faults, so alpha's first request is dropped.
	fnet, tr := newFaultNet(2, map[string]*netWorker{
		workers[0]: flaky, workers[1]: {}, workers[2]: victim,
	})
	opts := fastOptions(workers, tr)
	// Drops black-hole until the attempt deadline: keep it short so the
	// retry path, not the test timeout, absorbs them.
	opts.RequestTimeout = 150 * time.Millisecond
	c, err := newCoordinator(opts, fastLadder)
	if err != nil {
		t.Fatal(err)
	}

	// SIGKILL gamma as soon as the sweep has demonstrably started on it.
	killDone := make(chan struct{})
	go func() {
		defer close(killDone)
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if victim.sweeps.Load() >= 1 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		victim.dead.Store(true) // kill regardless; the sweep may be done
	}()

	res, err := c.RunSweep(context.Background(), "missrate", spec, testPolicies)
	<-killDone
	if err != nil {
		t.Fatalf("RunSweep under faults: %v", err)
	}
	if res.Incomplete != 0 || res.Merged.MissingCells != 0 {
		t.Fatalf("faulty sweep incomplete: %d shards, %d cells", res.Incomplete, res.Merged.MissingCells)
	}
	if got, want := mergedJSON(t, res), singleNodeJSON(t, "missrate", spec, testPolicies); got != want {
		t.Fatal("distributed result under faults differs from single-node run")
	}
	fnet.mu.Lock()
	defer fnet.mu.Unlock()
	if flaky.cursor == 0 {
		t.Fatal("the flaky worker injected no fault")
	}
}

// A 200 whose body is cut short or breaks mid-stream is a retryable
// failure: every shard still completes, byte-identical, on a clean worker.
func TestRunSweepRetriesCorruptBodies(t *testing.T) {
	spec := testSpec()
	spec.Replications = 8 // eight shards, so several land on corrupt first
	workers := []string{"http://corrupt", "http://clean"}
	corrupt := &netWorker{FailRate: 1, Faults: []fault{faultTruncate, faultReset}}
	fnet, tr := newFaultNet(1, map[string]*netWorker{workers[0]: corrupt, workers[1]: {}})
	opts := fastOptions(workers, tr)
	opts.ShardsPerWorker = 4
	opts.HedgeAfter = -1
	c, err := newCoordinator(opts, fastLadder)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunSweep(context.Background(), "missrate", spec, testPolicies)
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete != 0 || res.Merged.MissingCells != 0 {
		t.Fatalf("sweep incomplete: %d shards, %d cells", res.Incomplete, res.Merged.MissingCells)
	}
	if got, want := mergedJSON(t, res), singleNodeJSON(t, "missrate", spec, testPolicies); got != want {
		t.Fatal("result after corrupt bodies differs from single-node run")
	}
	fnet.mu.Lock()
	defer fnet.mu.Unlock()
	if corrupt.cursor < 2 {
		t.Fatalf("%d corrupt bodies sent, want both modes", corrupt.cursor)
	}
}

// Straggler shards hedge onto another worker and the fast response wins.
func TestRunSweepHedgesStragglers(t *testing.T) {
	spec := testSpec()
	workers := []string{"http://slow", "http://fast"}
	_, tr := newFaultNet(3, map[string]*netWorker{
		// Nearly every attempt on slow stalls well past the hedge delay.
		workers[0]: {FailRate: 0.999, Faults: []fault{faultDelay}, Delay: 400 * time.Millisecond},
		workers[1]: {},
	})
	opts := fastOptions(workers, tr)
	opts.ShardsPerWorker = 4
	opts.HedgeAfter = 20 * time.Millisecond
	c, err := newCoordinator(opts, fastLadder)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := c.RunSweep(context.Background(), "missrate", spec, testPolicies)
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete != 0 {
		t.Fatalf("%d incomplete shards", res.Incomplete)
	}
	hedged := 0
	for _, sh := range res.Shards {
		if sh.Hedged {
			hedged++
		}
	}
	if hedged == 0 {
		t.Fatal("no shard hedged despite a straggling worker")
	}
	if c.hedges.Value() < float64(hedged) {
		t.Fatalf("hedge metric %v < hedged shards %d", c.hedges.Value(), hedged)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("hedging did not rescue stragglers (took %s)", elapsed)
	}
	if got, want := mergedJSON(t, res), singleNodeJSON(t, "missrate", spec, testPolicies); got != want {
		t.Fatal("hedged result differs from single-node run")
	}
}

// A permanent (4xx-class) error fails the shard — and the sweep —
// immediately, without burning retries on a request that cannot succeed:
// the worker refuses an unknown policy with 400.
func TestRunSweepPermanentErrorFailsFast(t *testing.T) {
	workers := []string{"http://w0", "http://w1"}
	_, tr := newFaultNet(1, map[string]*netWorker{workers[0]: {}, workers[1]: {}})
	noProbes := fastLadder
	noProbes.probe = -1
	c, err := newCoordinator(fastOptions(workers, tr), noProbes)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.RunSweep(context.Background(), "missrate", testSpec(), []string{"lsa", "no-such-policy"})
	var pe *PermanentError
	if !errors.As(err, &pe) || pe.Status != http.StatusBadRequest || !strings.Contains(pe.Body, "no-such-policy") {
		t.Fatalf("want the worker's 400 naming the policy, got %v", err)
	}
	if n := c.retries.Value(); n != 0 {
		t.Fatalf("%v retries burned on a permanent error", n)
	}
}

// shardFilterTransport permanently refuses one shard index and delegates
// the rest — a deterministic way to lose exactly one shard.
type shardFilterTransport struct {
	inner  Transport
	reject int
}

func (s *shardFilterTransport) Do(ctx context.Context, worker string, body []byte) (*Envelope, error) {
	var req service.SweepRequest
	if err := json.Unmarshal(body, &req); err == nil && req.Shard != nil && req.Shard.Index == s.reject {
		return nil, &PermanentError{Worker: worker, Status: 400, Body: "shard rejected by test"}
	}
	return s.inner.Do(ctx, worker, body)
}

func (s *shardFilterTransport) Healthy(ctx context.Context, worker string) error {
	return s.inner.Healthy(ctx, worker)
}

// With AllowPartial, a lost shard degrades the sweep to a partial merge
// with explicit Incomplete and MissingCells accounting instead of failing.
func TestRunSweepPartialDegradation(t *testing.T) {
	spec := testSpec()
	workers := []string{"http://w0", "http://w1"}
	_, tr := newFaultNet(5, map[string]*netWorker{workers[0]: {}, workers[1]: {}})
	opts := fastOptions(workers, &shardFilterTransport{inner: tr, reject: 1})
	opts.AllowPartial = true
	c, err := newCoordinator(opts, fastLadder)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunSweep(context.Background(), "missrate", spec, testPolicies)
	if err != nil {
		t.Fatalf("partial sweep failed outright: %v", err)
	}
	if res.Incomplete != 1 {
		t.Fatalf("Incomplete = %d, want 1", res.Incomplete)
	}
	if res.Merged.MissingCells == 0 {
		t.Fatal("partial merge reports no missing cells")
	}
	if res.Shards[1].Err == nil {
		t.Fatal("rejected shard carries no error")
	}
	// Without AllowPartial the same damage fails the sweep loudly.
	opts.AllowPartial = false
	c2, err := newCoordinator(opts, fastLadder)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.RunSweep(context.Background(), "missrate", spec, testPolicies); err == nil {
		t.Fatal("strict sweep succeeded despite a lost shard")
	}
}

// Repeat sweeps route each shard to the same owner, whose single-flight
// cache already holds the digest: the second run is pure cache hits.
func TestConsistentHashingCacheAffinity(t *testing.T) {
	spec := testSpec()
	workers := []string{"http://w0", "http://w1", "http://w2"}
	fnet, tr := newFaultNet(11, map[string]*netWorker{
		workers[0]: {}, workers[1]: {}, workers[2]: {},
	})
	opts := fastOptions(workers, tr)
	opts.HedgeAfter = -1 // hedges would double-serve shards and muddy the count
	c, err := newCoordinator(opts, fastLadder)
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.RunSweep(context.Background(), "missrate", spec, testPolicies)
	if err != nil {
		t.Fatal(err)
	}
	if hits := fnet.hits.Load(); hits != 0 {
		t.Fatalf("first run saw %d cache hits", hits)
	}
	second, err := c.RunSweep(context.Background(), "missrate", spec, testPolicies)
	if err != nil {
		t.Fatal(err)
	}
	if hits := int(fnet.hits.Load()); hits != len(second.Shards) {
		t.Fatalf("second run: %d cache hits, want %d (one per shard)", hits, len(second.Shards))
	}
	for i := range first.Shards {
		if first.Shards[i].Worker != second.Shards[i].Worker {
			t.Fatalf("shard %d moved from %s to %s across identical runs",
				i, first.Shards[i].Worker, second.Shards[i].Worker)
		}
	}
}

// Retry-After from a shedding worker floors the backoff, and the shard
// still completes elsewhere.
func TestRunSweepHonorsShedding(t *testing.T) {
	spec := testSpec()
	workers := []string{"http://shedding", "http://calm"}
	_, tr := newFaultNet(17, map[string]*netWorker{
		workers[0]: {FailRate: 0.9, Faults: []fault{faultShed}},
		workers[1]: {},
	})
	c, err := newCoordinator(fastOptions(workers, tr), fastLadder)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunSweep(context.Background(), "missrate", spec, testPolicies)
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete != 0 {
		t.Fatalf("%d incomplete shards", res.Incomplete)
	}
	if got, want := mergedJSON(t, res), singleNodeJSON(t, "missrate", spec, testPolicies); got != want {
		t.Fatal("result under shedding differs from single-node run")
	}
}

// Cancelling the sweep context stops everything promptly.
func TestRunSweepCancellation(t *testing.T) {
	spec := testSpec()
	workers := []string{"http://w0"}
	_, tr := newFaultNet(1, map[string]*netWorker{
		workers[0]: {FailRate: 1, Faults: []fault{faultDrop}},
	})
	opts := fastOptions(workers, tr)
	opts.RequestTimeout = 30 * time.Second // the drop outlives the test unless cancelled
	c, err := newCoordinator(opts, fastLadder)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := c.RunSweep(ctx, "missrate", spec, testPolicies)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled sweep reported success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled sweep did not return")
	}
	wg.Wait()
}

// Fabric metrics are exported through the registry.
func TestFabricMetricsExported(t *testing.T) {
	workers := []string{"http://w0"}
	_, tr := newFaultNet(2, map[string]*netWorker{workers[0]: {}})
	c, err := newCoordinator(fastOptions(workers, tr), fastLadder)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunSweep(context.Background(), "missrate", testSpec(), testPolicies); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := c.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, name := range []string{
		"fabric_retries_total", "fabric_hedges_total", "fabric_shards_total",
		"fabric_breaker_opens_total", "fabric_shard_seconds", "fabric_attempt_seconds",
		"fabric_breaker_state",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metric %s not exported", name)
		}
	}
}
