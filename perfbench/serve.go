package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/eadvfs/eadvfs"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/rng"
	"github.com/eadvfs/eadvfs/internal/service"
)

// Serve workload shape. On a 2-vCPU VM a stream spends about 20 ms in the
// handler, a miss 1.5 ms and a hit 0.15 ms, and the host's scheduling
// hiccups delay a varying share of all requests by a few milliseconds. The
// mix puts p50 inside the hits (70%) and p90 inside the streams (15%),
// whose time lies far above those delays; the rate keeps the two
// connections idle enough that hits seldom wait behind two streams, even
// while the host runs two or three times slower than usual. Measured
// alternatives, each spreading by more than a fifth between runs of one
// build: at 100 and 150 requests/s, p50 (hits queued behind streams
// whenever the host slowed); with 5% streams, p90 (inside the misses,
// where the delayed requests reach); at 300 requests/s with 10% streams,
// p90 (on the boundary between misses and streams).
const (
	serveRate       = 60.0
	serveWarmup     = 2 * time.Second
	servePool       = 64
	serveHorizon    = 2000
	serveLibSamples = 4 // per request kind: responses recomputed with the library after the window
	servePoolShare  = 0.70
	serveFreshShare = 0.15 // the rest are streams
)

type reqKind int

const (
	kindPool   reqKind = iota // a pool config: a cache hit once warm
	kindFresh                 // a config never sent before: a miss that runs the engine
	kindStream                // ?events=1 of a pool config: uncached JSONL
)

var kindNames = [...]string{"pool", "fresh", "stream"}

// arrival is one scheduled request.
type arrival struct {
	at   time.Duration // due time from the start of the schedule
	kind reqKind
	cfg  int // index into the pool, or into the fresh configs
}

// serveConfig draws one request config.
func serveConfig(r *rng.RNG) eadvfs.Config {
	return eadvfs.Config{
		Horizon:     serveHorizon,
		Policy:      rng.Choice(r, []string{"ea-dvfs", "lsa"}),
		Capacity:    rng.Choice(r, []float64{200, 300, 500, 1000}),
		Utilization: rng.Choice(r, []float64{0.4, 0.6}),
		Seed:        r.Uint64() >> 12,
	}
}

// serveInputs are the seeded inputs of a serve run: the config pool, the
// fresh configs and the arrival schedule.
type serveInputs struct {
	pool, fresh         []eadvfs.Config
	poolBody, freshBody [][]byte
	schedule            []arrival
}

func newServeInputs(seed uint64, window time.Duration) (*serveInputs, error) {
	in := &serveInputs{}
	cr := rng.New(seed).Child(streamConfigs)
	for i := 0; i < servePool; i++ {
		in.pool = append(in.pool, serveConfig(cr))
	}
	ar := rng.New(seed).Child(streamArrival)
	var at time.Duration
	for {
		at += time.Duration(ar.Exponential(serveRate) * float64(time.Second))
		if at >= serveWarmup+window {
			break
		}
		a := arrival{at: at}
		switch u := ar.Float64(); {
		case u < servePoolShare:
			a.kind, a.cfg = kindPool, ar.Intn(servePool)
		case u < servePoolShare+serveFreshShare:
			a.kind, a.cfg = kindFresh, len(in.fresh)
			in.fresh = append(in.fresh, serveConfig(cr))
		default:
			a.kind, a.cfg = kindStream, ar.Intn(servePool)
		}
		in.schedule = append(in.schedule, a)
	}
	var err error
	if in.poolBody, err = marshalAll(in.pool); err != nil {
		return nil, err
	}
	in.freshBody, err = marshalAll(in.fresh)
	return in, err
}

func marshalAll(cfgs []eadvfs.Config) ([][]byte, error) {
	out := make([][]byte, len(cfgs))
	for i, c := range cfgs {
		b, err := json.Marshal(c)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// serveFixture is one in-process easerve with its client.
type serveFixture struct {
	in     *serveInputs
	ts     *httptest.Server
	client *http.Client
	timer  *handlerTimer // nil untraced
}

func (f *serveFixture) close() {
	f.client.CloseIdleConnections()
	f.ts.Close()
}

// served is one request's outcome, as the client saw it.
type served struct {
	due, lag   time.Duration // due time, and how late the dispatcher sent it
	sent, done time.Duration // request start and end, from the schedule start
	status     int
	cache      string
	traced     bool
	spans      []obs.Span
	err        error
}

// sampleKey names a request config: its kind and index.
type sampleKey struct {
	kind reqKind
	cfg  int
}

// serveChecker holds the correctness state shared by the two senders.
type serveChecker struct {
	mu      sync.Mutex
	first   map[int][]byte // first response body per pool config
	sampled map[sampleKey]bool
	// The first response of each sampled config, for the library check: a
	// result's body, and a stream's SHA-256 (streams run to about 1 MB, and
	// keeping a few whole would put a seed-dependent amount in memory_mb).
	samples    map[sampleKey][]byte
	streamSums map[int][32]byte
	bad        []string
}

func (c *serveChecker) fail(format string, args ...any) {
	c.mu.Lock()
	if len(c.bad) < 8 {
		c.bad = append(c.bad, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// body checks one response body and keeps it when it is sampled; false
// means the response is wrong.
func (c *serveChecker) body(a arrival, b []byte) bool {
	key := sampleKey{a.kind, a.cfg}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sampled[key] {
		if _, ok := c.streamSums[a.cfg]; a.kind == kindStream && !ok {
			c.streamSums[a.cfg] = sha256.Sum256(b)
		} else if a.kind != kindStream && c.samples[key] == nil {
			c.samples[key] = append([]byte(nil), b...)
		}
	}
	switch a.kind {
	case kindPool:
		if want, ok := c.first[a.cfg]; !ok {
			c.first[a.cfg] = append([]byte(nil), b...)
		} else if !bytes.Equal(want, b) {
			return false
		}
	case kindStream:
		return len(b) > 0 && b[len(b)-1] == '\n'
	}
	return true
}

func runServe(o options) (*report, error) {
	r := newReport()
	in, err := newServeInputs(o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	cal := &calibrator{}
	f, err := setup(r, cal, func(k int) (*serveFixture, error) {
		h := service.New(service.Options{}).Handler()
		f := &serveFixture{in: in, client: newClient()}
		if o.trace {
			f.timer = &handlerTimer{next: h}
			h = f.timer
		}
		f.ts = httptest.NewServer(h)
		// Warm-up op: a config outside the schedule, so the pool stays cold.
		warm, err := json.Marshal(serveConfig(rng.New(o.seed).Child(streamWarmup).Child(uint64(k))))
		if err == nil {
			err = f.warmup(warm)
		}
		if err != nil {
			f.close()
			return nil, err
		}
		return f, nil
	}, (*serveFixture).close)
	if err != nil {
		return nil, err
	}
	defer f.close()
	if f.timer != nil {
		f.timer.take()
	}

	chk := &serveChecker{first: map[int][]byte{}, sampled: map[sampleKey]bool{}, samples: map[sampleKey][]byte{}, streamSums: map[int][32]byte{}}
	pick := rng.New(o.seed).Child(streamSample)
	for k := 0; k < serveLibSamples; k++ {
		chk.sampled[sampleKey{kindPool, pick.Intn(servePool)}] = true
		chk.sampled[sampleKey{kindStream, pick.Intn(servePool)}] = true
		if len(in.fresh) > 0 {
			chk.sampled[sampleKey{kindFresh, pick.Intn(len(in.fresh))}] = true
		}
	}

	var m *meter
	stopCal := cal.every()
	out, t0 := f.load(o, chk, func() { m = startMeter() })
	stopCal()
	measured := 0
	for _, s := range out {
		if s.due >= serveWarmup {
			measured++
		}
	}
	m.finish(r, cal, measured)

	end := serveWarmup + o.seconds
	var lat []timed
	var tracedLat, untracedLat, lag []float64
	completed, shed, hits, lookups := 0, 0, 0, 0
	for i, s := range out {
		if s.done >= serveWarmup && s.done < end && s.err == nil {
			completed++
		}
		if s.due < serveWarmup {
			continue
		}
		r.attempted++
		if s.err != nil {
			r.failed++
			if s.status == http.StatusTooManyRequests {
				shed++
			}
			continue
		}
		l := ms(s.done - s.due)
		lat = append(lat, timed{t0.Add(s.due), s.done - s.due})
		lag = append(lag, ms(s.lag))
		if s.traced {
			tracedLat = append(tracedLat, l)
		} else {
			untracedLat = append(untracedLat, l)
		}
		if in.schedule[i].kind != kindStream {
			lookups++
			if s.cache == "hit" {
				hits++
			}
		}
	}
	for _, b := range chk.bad {
		r.check("serve.response", false, "%s", b)
	}
	dig := newDigester(servePool)
	for i := 0; i < servePool; i++ {
		if b, ok := chk.first[i]; ok {
			dig.add(i, b)
		}
	}
	dig.finish(r)
	cal.check(r)
	r.set("throughput_ops_s", float64(completed)/o.seconds.Seconds(), completed)
	r.setLatency(cal.latencies(lat))
	r.set("loadgen.lag_p99_ms", percentile(lag, 99), len(lag))
	if r.attempted > 0 {
		r.set("service.shed_rate", float64(shed)/float64(r.attempted), r.attempted)
	}
	if lookups > 0 {
		r.set("service.hit_ratio", float64(hits)/float64(lookups), lookups)
	}
	if f.timer != nil {
		serveLayers(r, out, f.timer.take())
		if len(tracedLat) > 0 && len(untracedLat) > 0 {
			r.set("trace.overhead_ratio", median(tracedLat)/median(untracedLat), len(tracedLat))
		}
	}
	serveLibraryChecks(r, in, chk)
	return r, nil
}

// warmup sends one request and checks it succeeded.
func (f *serveFixture) warmup(body []byte) error {
	resp, err := f.client.Post(f.ts.URL+"/v1/sim", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("warm-up request: status %d", resp.StatusCode)
	}
	return nil
}

// load runs the open loop: a dispatcher releases each request at its due
// time, maxConns senders send them in order. A request that finds both
// senders busy waits, and that wait counts in its latency, which is timed
// from the due time. started runs when the warm-up window ends. load
// returns every request's outcome and the schedule's start.
func (f *serveFixture) load(o options, chk *serveChecker, started func()) ([]served, time.Time) {
	sched := f.in.schedule
	out := make([]served, len(sched))
	queue := make(chan int, len(sched)) // never blocks the dispatcher
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				f.send(o, i, t0, &out[i], chk)
			}
		}()
	}
	warm := false
	for i, a := range sched {
		if !warm && a.at >= serveWarmup {
			started()
			warm = true
		}
		if d := time.Until(t0.Add(a.at)); d > 0 {
			time.Sleep(d)
		}
		out[i].due = a.at
		out[i].lag = time.Since(t0) - a.at
		queue <- i
	}
	if !warm {
		started()
	}
	close(queue)
	wg.Wait()
	return out, t0
}

// send performs request i and checks its response.
func (f *serveFixture) send(o options, i int, t0 time.Time, s *served, chk *serveChecker) {
	a := f.in.schedule[i]
	url := f.ts.URL + "/v1/sim"
	var body []byte
	switch a.kind {
	case kindPool:
		body = f.in.poolBody[a.cfg]
	case kindFresh:
		body = f.in.freshBody[a.cfg]
	case kindStream:
		body = f.in.poolBody[a.cfg]
		url += "?events=1"
	}
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		s.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if f.timer != nil {
		req.Header.Set(requestHeader, strconv.Itoa(i))
		// Every other request carries a traceparent: the server returns its
		// admission/cache/engine spans, and the untraced half is the
		// baseline of trace.overhead_ratio.
		if i%2 == 0 {
			sc := obs.SpanContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID(), Sampled: true}
			req.Header.Set("traceparent", sc.Traceparent())
			s.traced = true
		}
	}
	s.sent = time.Since(t0)
	resp, err := f.client.Do(req)
	if err != nil {
		s.done = time.Since(t0)
		s.err = err
		return
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done = time.Since(t0)
	s.status = resp.StatusCode
	s.cache = resp.Header.Get("X-Cache")
	switch {
	case err != nil:
		s.err = err
	case resp.StatusCode != http.StatusOK:
		s.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	case !chk.body(a, b):
		s.err = errors.New("response body differs from the expected one")
	}
	if s.err != nil {
		chk.fail("request %d (%s %d): %v", i, kindNames[a.kind], a.cfg, s.err)
		return
	}
	if s.traced {
		s.spans, _ = obs.DecodeSpanHeader(resp.Header.Get(obs.SpanHeader))
	}
}

// serveLayers derives the service-layer metrics of a traced run from the
// server-side timer records and the spans of traced requests.
func serveLayers(r *report, out []served, recs []handled) {
	server := make(map[int]handled, len(recs))
	for _, h := range recs {
		if i, err := strconv.Atoi(h.id); err == nil {
			server[i] = h
		}
	}
	var hit, miss, stream, overhead, admission, engine []float64
	for i, s := range out {
		h, ok := server[i]
		if s.due < serveWarmup || s.err != nil || !ok {
			continue
		}
		d := ms(h.dur)
		switch {
		case h.stream:
			stream = append(stream, d)
		case h.cache == "hit":
			hit = append(hit, d)
		case h.cache == "miss":
			miss = append(miss, d)
		}
		overhead = append(overhead, ms(s.done-s.sent)-d)
		for _, sp := range s.spans {
			switch sp.Name {
			case "admission":
				admission = append(admission, ms(sp.Duration))
			case "engine":
				engine = append(engine, ms(sp.Duration))
			}
		}
	}
	r.setP50("service.hit.server_p50_ms", hit)
	r.setP50("service.miss.server_p50_ms", miss)
	r.setP50("service.stream.server_p50_ms", stream)
	r.setP50("net.client_overhead_p50_ms", overhead)
	r.setP50("service.admission_wait_p50_ms", admission)
	r.setP50("service.engine_p50_ms", engine)
}

// serveLibraryChecks recomputes the sampled responses with the library:
// a result payload must be byte-equal to json.Marshal of a direct run, and
// an event stream byte-equal to the same run's JSONL probe output.
func serveLibraryChecks(r *report, in *serveInputs, chk *serveChecker) {
	keys := make([]sampleKey, 0, len(chk.samples))
	for k := range chk.samples {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].kind != keys[j].kind {
			return keys[i].kind < keys[j].kind
		}
		return keys[i].cfg < keys[j].cfg
	})
	for _, k := range keys {
		var cfg eadvfs.Config
		if k.kind == kindFresh {
			cfg = in.fresh[k.cfg]
		} else {
			cfg = in.pool[k.cfg]
		}
		res, err := eadvfs.Run(cfg)
		var want []byte
		if err == nil {
			want, err = json.Marshal(res)
		}
		var env struct {
			Result json.RawMessage `json:"result"`
		}
		if err == nil {
			err = json.Unmarshal(chk.samples[k], &env)
		}
		ok := err == nil && bytes.Equal(env.Result, want)
		r.check("serve.result", ok, "%s %d: result %s", kindNames[k.kind], k.cfg, verdict(ok, err, "a direct library run"))
	}

	streams := make([]int, 0, len(chk.streamSums))
	for c := range chk.streamSums {
		streams = append(streams, c)
	}
	sort.Ints(streams)
	for _, c := range streams {
		cfg := in.pool[c]
		var buf bytes.Buffer
		jw := obs.NewJSONLWriter(&buf)
		cfg.Probe = jw
		_, err := eadvfs.Run(cfg)
		if err == nil {
			err = jw.Flush()
		}
		ok := err == nil && sha256.Sum256(buf.Bytes()) == chk.streamSums[c]
		r.check("serve.stream", ok, "stream %d: event stream %s", c, verdict(ok, err, "a direct library run"))
	}
}

// verdict words the outcome of a byte comparison against ref.
func verdict(ok bool, err error, ref string) string {
	switch {
	case err != nil:
		return "check failed: " + err.Error()
	case ok:
		return "byte-equal to " + ref
	default:
		return "differs from " + ref
	}
}
