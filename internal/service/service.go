// Package service turns the simulator into a shared network service:
// an HTTP/JSON API that accepts the same simulation and sweep
// configurations the easim/eaexp CLIs consume, runs them on a bounded
// worker pool hardened by internal/experiment's parallel runner, and
// caches results under the SHA-256 compact-form config digest that run
// manifests (internal/obs) already record. The paper's evaluation runs
// thousands of simulations per data point (§5); a shared service
// deduplicates and amortizes them across clients.
//
// Contracts (DESIGN.md §12):
//
//   - Cache-key contract: the key of a request is
//     digest.Compact(json.Marshal(config)) — exactly the config_digest an
//     easim run manifest records for the same configuration. A cached
//     response is byte-identical to the first response for the digest, and
//     its result payload is byte-identical to json.Marshal of the result
//     of running the spec directly with the library (which is what easim
//     does), because it IS that: computed once, stored verbatim.
//   - Single flight: concurrent identical requests share one engine run.
//     The first requester leads; the rest wait on its entry. Failed
//     computations are not cached.
//   - Backpressure: at most Workers simulations execute concurrently and
//     at most Queue requests wait for a worker. Beyond that the server
//     sheds load with 429 and a Retry-After hint — it never queues
//     unboundedly and never deadlocks.
//   - Cancellation: the request context (client disconnect) and the
//     per-request Timeout propagate into the engine (sim.Config.Context)
//     and the sweep runners' pickup paths, so abandoned work stops
//     promptly.
//   - Draining: after BeginDrain, /healthz reports 503 (load balancers
//     stop routing) and new compute requests are refused with 503, while
//     in-flight requests run to completion — the graceful half of a
//     SIGTERM shutdown (cmd/easerve owns the other half).
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/eadvfs/eadvfs"
	"github.com/eadvfs/eadvfs/internal/buildinfo"
	"github.com/eadvfs/eadvfs/internal/digest"
	"github.com/eadvfs/eadvfs/internal/experiment"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/spec"
)

// defaultMaxBodyBytes bounds a request body; a simulation spec is a few
// hundred bytes, so 1 MiB leaves room for large explicit task sets while
// keeping a hostile client from ballooning memory.
const defaultMaxBodyBytes = 1 << 20

// defaultCacheBytes is the default result-cache byte budget (64 MiB): a
// remaining-energy sweep at paper scale is a few MiB of JSON, so the
// default holds plenty of distinct sweeps while bounding worst-case
// resident memory.
const defaultCacheBytes = 64 << 20

// Options configures a Server. Zero values take the documented defaults.
type Options struct {
	// Workers bounds concurrently executing jobs (default GOMAXPROCS).
	// A sweep counts as one job here and fans out internally across
	// experiment.Parallelism.
	Workers int
	// Queue bounds requests waiting for a worker (default 64). Admission
	// beyond Workers+Queue is refused with 429.
	Queue int
	// CacheEntries bounds retained results (default 4096), evicted
	// least-recently-used together with CacheBytes.
	CacheEntries int
	// CacheBytes bounds the total stored bytes of retained results
	// (default 64 MiB). Whichever of the two cache bounds is exceeded
	// first triggers LRU eviction.
	CacheBytes int64
	// MaxBodyBytes bounds a request body (default 1 MiB); larger bodies
	// are refused with 413.
	MaxBodyBytes int64
	// Timeout is the per-request compute budget (default 120s). An
	// expired budget aborts the engine mid-run and returns 504.
	Timeout time.Duration
	// RetryAfter is the hint sent with 429/503 responses (default 1s).
	RetryAfter time.Duration
	// FlightSpans / FlightDecisions bound the always-on flight recorder's
	// rings (default obs.DefaultFlight*; negative disables the recorder
	// and /debug/flight).
	FlightSpans     int
	FlightDecisions int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Queue <= 0 {
		o.Queue = 64
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 4096
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = defaultCacheBytes
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = defaultMaxBodyBytes
	}
	if o.Timeout <= 0 {
		o.Timeout = 120 * time.Second
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	return o
}

// Sentinel errors of the admission path.
var (
	errOverload = errors.New("service: worker pool and queue are full")
	errDraining = errors.New("service: server is draining")
)

// SweepRequest is the body of POST /v1/sweep: which experiment to run,
// its spec, and the policies to compare.
type SweepRequest struct {
	// Schema declares the wire schema version (internal/spec): absent or
	// 1 is the original v1 form, 2 the current one. The nested spec's
	// v2-only members (task_model, task_params) require 2. Excluded from
	// the request digest, so versioned and unversioned spellings of the
	// same sweep share a cache entry.
	Schema int `json:"schema,omitempty"`
	// Kind selects the sweep: "missrate" (Figures 8–9 pooled deadline
	// miss rates) or "remaining" (Figures 6–7 remaining-energy curves).
	Kind string `json:"kind"`
	// Spec carries the §5.1 simulation parameters (experiment.Spec).
	Spec experiment.Spec `json:"spec"`
	// Policies names the policies to compare under identical conditions.
	Policies []string `json:"policies"`
	// Shard, when present, restricts the sweep to one disjoint slice of a
	// coordinator's plan (experiment.PlanShards); the result payload is
	// then an experiment.ShardResult — raw per-cell material for exact
	// merging — rather than the aggregate. The worker validates the shard
	// against the (normalized) spec, so a stale or corrupted plan fails
	// with 400 instead of computing the wrong cells. Absent for ordinary
	// whole-sweep requests, which keep their PR-5 digests.
	Shard *experiment.Shard `json:"shard,omitempty"`
}

// response is the JSON envelope of a computed or cached result. The
// envelope is cached verbatim alongside the payload, so a cache hit is
// byte-identical to the first response for the digest (cache state is
// reported in the X-Cache header, not the body, precisely to keep it so).
type response struct {
	Digest string          `json:"config_digest"`
	Result json.RawMessage `json:"result"`
}

// errorBody is the JSON envelope of a failed request.
type errorBody struct {
	Error string `json:"error"`
}

// Server is the simulation service. Create with New; serve via Handler.
type Server struct {
	opts Options
	// reg holds the service's metrics and per-run eadvfs_run_*
	// aggregates; /metrics serves it.
	reg   *obs.Registry
	cache *cache
	mux   *http.ServeMux

	// slots bounds concurrent engine runs. Per-run state reuse is
	// slot-affine for free: the engine draws a sim.Arena from a
	// sync.Pool, and with at most Workers concurrent runs the pool
	// stabilizes at ~one warm arena (deadline heap, queues, release
	// buffers) per slot (DESIGN.md §14).
	slots    chan struct{} // executing jobs; cap = Workers
	queued   chan struct{} // jobs waiting for a slot; cap = Queue
	draining atomic.Bool

	// runSim is the engine entry point; a test seam (defaults to
	// eadvfs.RunContext).
	runSim func(ctx context.Context, cfg eadvfs.Config) (*eadvfs.Result, error)

	// Metrics.
	cacheHit   *obs.Counter // completed entry served
	cacheJoin  *obs.Counter // waited on an in-flight identical request
	cacheMiss  *obs.Counter // led a new computation
	engineRuns *obs.Counter
	cacheEvict *obs.Counter
	rejected   map[string]*obs.Counter
	queueDepth *obs.Gauge
	inFlight   *obs.Gauge
	cacheSize  *obs.Gauge
	cacheBytes *obs.Gauge
	hitRatio   *obs.Gauge
	latency    map[string]*obs.Summary
	durations  map[string]*obs.HistogramMetric

	// flight is the always-on bounded recorder of recent spans and
	// decision audits, served by /debug/flight (nil when disabled).
	flight *obs.FlightRecorder
}

// New builds a Server.
func New(opts Options) *Server {
	o := opts.withDefaults()
	s := &Server{
		opts:   o,
		reg:    obs.NewRegistry(),
		cache:  newCache(o.CacheEntries, o.CacheBytes),
		slots:  make(chan struct{}, o.Workers),
		queued: make(chan struct{}, o.Queue),
		runSim: eadvfs.RunContext,
	}
	const cacheHelp = "result cache lookups by outcome"
	s.cacheHit = s.reg.Counter(obs.Labeled("easerve_cache_requests_total", "outcome", "hit"), cacheHelp)
	s.cacheJoin = s.reg.Counter(obs.Labeled("easerve_cache_requests_total", "outcome", "join"), cacheHelp)
	s.cacheMiss = s.reg.Counter(obs.Labeled("easerve_cache_requests_total", "outcome", "miss"), cacheHelp)
	s.engineRuns = s.reg.Counter("easerve_engine_runs_total", "simulation/sweep executions (cache misses that ran)")
	s.cacheEvict = s.reg.Counter("easerve_cache_evictions_total", "completed results evicted by the LRU bounds")
	s.cache.onEvict = func(evicted int) {
		s.cacheEvict.Add(float64(evicted))
		s.cacheSize.Set(float64(s.cache.len()))
		s.cacheBytes.Set(float64(s.cache.bytesUsed()))
	}
	const rejHelp = "requests shed by reason"
	s.rejected = map[string]*obs.Counter{
		"overload": s.reg.Counter(obs.Labeled("easerve_rejected_total", "reason", "overload"), rejHelp),
		"draining": s.reg.Counter(obs.Labeled("easerve_rejected_total", "reason", "draining"), rejHelp),
	}
	s.queueDepth = s.reg.Gauge("easerve_queue_depth", "requests waiting for a worker slot")
	s.inFlight = s.reg.Gauge("easerve_inflight", "requests executing on a worker slot")
	s.cacheSize = s.reg.Gauge("easerve_cache_entries", "live result-cache entries (completed + in-flight)")
	s.cacheBytes = s.reg.Gauge("easerve_cache_bytes", "bytes of completed results resident in the cache")
	const latHelp = "request service time in seconds"
	s.latency = map[string]*obs.Summary{
		"sim":   s.reg.Summary(obs.Labeled("easerve_request_seconds", "endpoint", "sim"), latHelp),
		"sweep": s.reg.Summary(obs.Labeled("easerve_request_seconds", "endpoint", "sweep"), latHelp),
	}
	s.hitRatio = s.reg.Gauge("easerve_cache_hit_ratio",
		"fraction of cache lookups served without a fresh engine run (hit+join over all lookups)")
	// Sweeps run orders of magnitude longer than single sims, so the two
	// endpoints get differently scaled fixed-width buckets.
	const durHelp = "request service time distribution in seconds"
	s.durations = map[string]*obs.HistogramMetric{
		"sim":   s.reg.Histogram(obs.Labeled("easerve_request_duration_seconds", "endpoint", "sim"), durHelp, 0, 2, 20),
		"sweep": s.reg.Histogram(obs.Labeled("easerve_request_duration_seconds", "endpoint", "sweep"), durHelp, 0, 30, 30),
	}
	if o.FlightSpans >= 0 && o.FlightDecisions >= 0 {
		s.flight = obs.NewFlightRecorder(o.FlightSpans, o.FlightDecisions)
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/sim", compute(s, "sim", "POST a simulation config", "sim config", nil, s.handleSim))
	s.mux.HandleFunc("/v1/sweep", compute(s, "sweep", "POST a sweep request", "sweep request", []string{"spec"}, s.handleSweep))
	s.mux.HandleFunc("/v1/capabilities", s.handleCapabilities)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/version", s.handleVersion)
	s.mux.HandleFunc("/debug/flight", s.handleFlight)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain switches the server into draining mode: /healthz turns 503
// and new compute requests are refused, while in-flight work completes.
// cmd/easerve calls it on SIGTERM before http.Server.Shutdown.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// acquire admits a request to the worker pool: immediately when a slot is
// free, through the bounded wait queue when all workers are busy, and with
// errOverload when the queue is full too — the server sheds load rather
// than queue without bound. The returned release MUST be called when the
// job finishes.
func (s *Server) acquire(ctx context.Context) (release func(), err error) {
	release = func() {
		<-s.slots
		s.inFlight.Set(float64(len(s.slots)))
	}
	// Fast path: an idle worker.
	select {
	case s.slots <- struct{}{}:
		s.inFlight.Set(float64(len(s.slots)))
		return release, nil
	default:
	}
	// Workers busy: join the bounded queue or shed.
	select {
	case s.queued <- struct{}{}:
	default:
		return nil, errOverload
	}
	s.queueDepth.Set(float64(len(s.queued)))
	defer func() {
		<-s.queued
		s.queueDepth.Set(float64(len(s.queued)))
	}()
	select {
	case s.slots <- struct{}{}:
		s.inFlight.Set(float64(len(s.slots)))
		return release, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// compute wraps a compute endpoint's handler in the request prologue they
// share: the endpoint's service-time metrics, the POST-only check (hint
// is the 405 message), the draining check, the bounded body read, the
// wire-schema gate and the strict decode into the handler's request
// type. Decode failures are prefixed with prefix.
func compute[T any](s *Server, endpoint, hint, prefix string, nested []string, handle func(http.ResponseWriter, *http.Request, T)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func(start time.Time) {
			sec := time.Since(start).Seconds()
			s.latency[endpoint].Observe(sec)
			s.durations[endpoint].Observe(sec)
		}(time.Now())
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			s.writeError(w, http.StatusMethodNotAllowed, errors.New(hint))
			return
		}
		if s.draining.Load() {
			s.rejected["draining"].Inc()
			s.writeError(w, http.StatusServiceUnavailable, errDraining)
			return
		}
		raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
		if err == nil {
			// Wire-schema gate: an unversioned (v1) document using v2-only
			// members, at top level or inside the nested objects, is
			// rejected, never silently reinterpreted, and a version newer
			// than this build fails loudly (internal/spec).
			_, err = spec.CheckWire(raw, nested...)
		}
		var req T
		if err == nil {
			err = spec.Decode(bytes.NewReader(raw), &req)
		}
		if err != nil {
			s.writeError(w, decodeStatus(err), fmt.Errorf("%s: %w", prefix, err))
			return
		}
		handle(w, r, req)
	}
}

// decodeStatus maps a request-body decode failure to an HTTP status:
// 413 when the body blew the MaxBytesReader bound, 400 otherwise.
func decodeStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// statusOf maps a compute error to an HTTP status.
func statusOf(err error) int {
	var pe *experiment.PanicError
	switch {
	case errors.Is(err, errOverload):
		return http.StatusTooManyRequests
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The leading request was abandoned; waiters should simply retry.
		return http.StatusServiceUnavailable
	case errors.As(err, &pe):
		return http.StatusInternalServerError
	default:
		// The engine is deterministic: everything else is a property of
		// the submitted configuration.
		return http.StatusBadRequest
	}
}

// writeError emits the JSON error envelope, attaching Retry-After to the
// shed-load statuses so well-behaved clients back off.
func (s *Server) writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	switch code {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", strconv.Itoa(int((s.opts.RetryAfter+time.Second-1)/time.Second)))
	}
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: err.Error()})
}

// serveCached runs the single-flight protocol for key around compute and
// writes the (computed or cached) response. compute returns the result
// payload bytes; its output is stored verbatim, which is what makes a
// cache hit byte-identical to the first response. A non-nil rt wraps the
// cache lookup, the admission wait and the engine execution in spans;
// the collected spans leave in the X-Trace-Spans header, so the body
// bytes — and with them the cache identity — are untouched by tracing.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key string, rt *requestTrace, compute func(ctx context.Context) ([]byte, error)) {
	cacheSpan := rt.child("cache")
	e, leader := s.cache.begin(key)
	switch {
	case leader:
		s.cacheMiss.Inc()
		cacheSpan.SetAttr("outcome", "miss")
	case e.done():
		s.cacheHit.Inc()
		cacheSpan.SetAttr("outcome", "hit")
	default:
		s.cacheJoin.Inc()
		cacheSpan.SetAttr("outcome", "join")
	}
	s.updateHitRatio()

	if leader {
		// A miss's cache interaction ends here; the rest of the request
		// is admission + engine.
		cacheSpan.End()
		var payload []byte
		err := func() error {
			adm := rt.child("admission")
			adm.SetInt("queue_depth", int64(len(s.queued)))
			release, err := s.acquire(r.Context())
			adm.End()
			if err != nil {
				return err
			}
			defer release()
			ctx, cancel := context.WithTimeout(r.Context(), s.opts.Timeout)
			defer cancel()
			eng := rt.child("engine")
			// Phase spans emitted inside the engine/experiment parent
			// under the engine span from here on.
			rt.setParent(eng.Context())
			payload, err = compute(ctx)
			if err != nil {
				eng.SetAttr("error", err.Error())
			}
			eng.End()
			return err
		}()
		envelope, merr := json.Marshal(response{Digest: key, Result: payload})
		if err == nil {
			err = merr
		}
		// The trailing newline is part of the stored bytes: e.result is
		// shared read-only by every waiter, so it must never be appended to
		// at write time.
		s.cache.complete(key, e, append(envelope, '\n'), err)
		s.cacheSize.Set(float64(s.cache.len()))
		s.cacheBytes.Set(float64(s.cache.bytesUsed()))
	} else {
		// Hit: e.ready is already closed and the span ends immediately.
		// Join: the span covers the single-flight wait on the leader.
		select {
		case <-e.ready:
			cacheSpan.End()
		case <-r.Context().Done():
			cacheSpan.SetAttr("error", r.Context().Err().Error())
			cacheSpan.End()
			rt.attach(w.Header())
			s.writeError(w, http.StatusServiceUnavailable, r.Context().Err())
			return
		}
	}

	if e.err != nil {
		code := statusOf(e.err)
		if code == http.StatusTooManyRequests {
			s.rejected["overload"].Inc()
		}
		rt.attach(w.Header())
		s.writeError(w, code, e.err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Config-Digest", key)
	if leader {
		w.Header().Set("X-Cache", "miss")
	} else {
		w.Header().Set("X-Cache", "hit")
	}
	rt.attach(w.Header())
	w.Write(e.result)
}

// updateHitRatio refreshes the easerve_cache_hit_ratio gauge from the
// lookup counters: hits and joins both avoided a fresh engine run.
func (s *Server) updateHitRatio() {
	hit := s.cacheHit.Value() + s.cacheJoin.Value()
	total := hit + s.cacheMiss.Value()
	if total > 0 {
		s.hitRatio.Set(hit / total)
	}
}

// handleSim serves POST /v1/sim: body = an eadvfs.Config (the same JSON a
// run manifest embeds). With ?events=1 the run streams its JSONL
// schema-v1 event log instead of returning a (cached) result.
func (s *Server) handleSim(w http.ResponseWriter, r *http.Request, cfg eadvfs.Config) {
	// The schema declaration is wire metadata, not simulation identity:
	// zero it before the canonical marshal so a "schema": 2 spelling keys
	// the same cache entry — and the same fleet affinity route — as its
	// v1 spelling (DESIGN.md §16).
	cfg.Schema = 0
	canonical, err := json.Marshal(cfg)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if streamRequested(r) {
		s.streamSimEvents(w, r, cfg)
		return
	}
	key := digest.Compact(canonical)
	// A traced request hands the collector to the engine as its probe, so
	// the run's plan/simulate phase spans join the request trace. Probe is
	// excluded from the JSON form, so the digest above is unaffected.
	rt := s.beginTrace(r, "sim")
	if rt != nil {
		cfg.Probe = rt
	}
	s.serveCached(w, r, key, rt, func(ctx context.Context) ([]byte, error) {
		var res *eadvfs.Result
		err := experiment.RunHardened(func() error {
			var err error
			res, err = s.runSim(ctx, cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		s.engineRuns.Inc()
		s.reg.RecordRun(runOutcome(res))
		return json.Marshal(res)
	})
}

// streamRequested reports whether the client asked for the JSONL event
// stream instead of the result payload.
func streamRequested(r *http.Request) bool {
	switch r.URL.Query().Get("events") {
	case "1", "true", "yes":
		return true
	}
	return false
}

// streamSimEvents runs the config with a JSONL probe writing straight to
// the response: the client watches arrivals, dispatches, decisions and
// faults as they happen. Event streams identify a client's observation,
// not a result, so they bypass the cache; they still occupy a worker slot
// and count against the queue bound. The status and Content-Type commit
// with the first bytes that reach the client, so a run that fails before
// then (every config validation error does) answers with the status and
// error body of the non-stream path. An engine error after streaming
// began truncates the stream (the status line is long gone).
func (s *Server) streamSimEvents(w http.ResponseWriter, r *http.Request, cfg eadvfs.Config) {
	release, err := s.acquire(r.Context())
	if err != nil {
		if errors.Is(err, errOverload) {
			s.rejected["overload"].Inc()
		}
		s.writeError(w, statusOf(err), err)
		return
	}
	defer release()
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.Timeout)
	defer cancel()

	sw := &streamWriter{w: w}
	jw := obs.NewJSONLWriter(sw)
	cfg.Probe = jw
	runErr := experiment.RunHardened(func() error {
		_, err := s.runSim(ctx, cfg)
		return err
	})
	if runErr != nil && !sw.started {
		s.writeError(w, statusOf(runErr), runErr)
		return
	}
	if runErr == nil {
		s.engineRuns.Inc()
	}
	jw.Flush()
	sw.start() // an empty stream is still a 200 application/x-ndjson
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// streamWriter sets the event stream's headers on the first Write, which
// commits the 200.
type streamWriter struct {
	w       http.ResponseWriter
	started bool
}

func (sw *streamWriter) start() {
	if !sw.started {
		sw.started = true
		sw.w.Header().Set("Content-Type", "application/x-ndjson")
		sw.w.Header().Set("X-Accel-Buffering", "no")
	}
}

func (sw *streamWriter) Write(p []byte) (int, error) {
	sw.start()
	return sw.w.Write(p)
}

// handleSweep serves POST /v1/sweep: a whole evaluation sweep (the
// paper's Figures 6–9 shapes) as one cached unit. The sweep fans out
// internally across experiment.Parallelism while occupying a single
// worker slot here, so one heavy sweep cannot monopolize the admission
// queue's accounting.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request, req SweepRequest) {
	if err := experiment.ValidateSweepKind(req.Kind); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	req.Spec = NormalizeSpec(req.Spec)
	if err := req.Spec.Validate(); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Policies) == 0 {
		s.writeError(w, http.StatusBadRequest, errors.New("no policies requested"))
		return
	}
	if req.Shard != nil {
		if err := req.Shard.Validate(req.Spec, req.Kind); err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	// Wire metadata, not sweep identity (see handleSim).
	req.Schema = 0
	canonical, err := json.Marshal(req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	key := digest.Compact(canonical)
	// The registry and span-sink attachments are observers, excluded from
	// the JSON form, so they cannot perturb the digest computed above. A
	// traced sweep collects the experiment-level phase spans (plan /
	// simulate / aggregate) — deliberately not the per-run engine spans,
	// which would mean thousands of spans for one response header.
	req.Spec.Metrics = s.reg
	rt := s.beginTrace(r, "sweep")
	if rt != nil {
		req.Spec.Spans = rt
	}
	s.serveCached(w, r, key, rt, func(ctx context.Context) ([]byte, error) {
		var out any
		if req.Shard != nil {
			res, err := experiment.RunShardCtx(ctx, req.Kind, req.Spec, req.Policies, *req.Shard)
			if err != nil {
				return nil, err
			}
			out = res
		} else {
			res, err := experiment.RunSweep(ctx, req.Kind, req.Spec, req.Policies)
			if err != nil {
				return nil, err
			}
			out = res.Result()
		}
		s.engineRuns.Inc()
		return json.Marshal(out)
	})
}

// NormalizeSpec fills a sweep spec's zero fields from the paper defaults
// (experiment.DefaultSpec), the same leniency the easim facade gives its
// Config. Normalizing BEFORE digesting also canonicalizes: a request that
// spells a default out and one that omits it name the same sweep, so they
// share a cache entry. The fabric coordinator (internal/fabric) applies
// the same normalization before planning shards, so the digests it routes
// on are exactly the cache keys workers store under.
func NormalizeSpec(s experiment.Spec) experiment.Spec {
	d := experiment.DefaultSpec()
	if s.Horizon == 0 {
		s.Horizon = d.Horizon
	}
	if s.NumTasks == 0 {
		s.NumTasks = d.NumTasks
	}
	if s.Utilization == 0 {
		s.Utilization = d.Utilization
	}
	if len(s.Capacities) == 0 {
		s.Capacities = d.Capacities
	}
	if s.Replications == 0 {
		s.Replications = d.Replications
	}
	if s.Seed == 0 {
		s.Seed = d.Seed
	}
	if s.Predictor == "" {
		s.Predictor = d.Predictor
	}
	if s.PMax == 0 {
		s.PMax = d.PMax
	}
	return s
}

// handleMetrics serves the Prometheus text exposition of the registry.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// handleHealthz reports liveness, flipping to 503 while draining so load
// balancers stop routing new work during a rolling restart. Load is
// surfaced in headers — the body stays "ok" for existing probes — so a
// placement-aware coordinator can weight workers by queue depth
// (ROADMAP item 1) from the health probe it already sends.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("X-Queue-Depth", strconv.Itoa(len(s.queued)))
	w.Header().Set("X-Inflight", strconv.Itoa(len(s.slots)))
	w.Header().Set("X-Worker-Slots", strconv.Itoa(cap(s.slots)))
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleFlight dumps the flight recorder: the most recent spans and
// decision audits this worker saw, as one JSON document. 404 when the
// recorder is disabled.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		http.Error(w, "flight recorder disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.flight.Snapshot())
}

// FlightSnapshot returns the flight recorder's current contents; ok is
// false when the recorder is disabled. cmd/easerve dumps this on SIGQUIT.
func (s *Server) FlightSnapshot() (obs.FlightDump, bool) {
	if s.flight == nil {
		return obs.FlightDump{}, false
	}
	return s.flight.Snapshot(), true
}

// handleVersion reports the build identity (internal/buildinfo), the same
// identity run manifests record.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	bi := buildinfo.Get()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Tool      string `json:"tool"`
		GoVersion string `json:"go_version"`
		Revision  string `json:"vcs_revision,omitempty"`
		Dirty     bool   `json:"vcs_dirty"`
	}{"easerve", bi.GoVersion, bi.Revision, bi.Dirty})
}

// runOutcome is a facade-level run outcome in the form the eadvfs_run_*
// recorder (obs.Registry.RecordRun) takes — the series the experiment
// harness exports too, so dashboards work on either source.
func runOutcome(res *eadvfs.Result) obs.RunOutcome {
	return obs.RunOutcome{
		Released:  res.Released,
		Finished:  res.Finished,
		Missed:    res.Missed,
		MissRate:  res.MissRate,
		BusyTime:  res.BusyTime,
		IdleTime:  res.IdleTime,
		StallTime: res.StallTime,
		CPUEnergy: res.CPUEnergy,
		Degraded:  res.Degradation != (eadvfs.Degradation{}),
	}
}
