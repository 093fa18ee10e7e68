package fabric

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing/iotest"
	"time"

	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/rng"
	"github.com/eadvfs/eadvfs/internal/service"
)

// fault is one wire-level failure the fault network injects in front of
// a worker's easerve handler.
type fault int

const (
	faultDrop     fault = iota // no answer: block until the request context ends
	faultDelay                 // wait the worker's Delay, then serve
	fault5xx                   // 500 without reaching the handler
	faultShed                  // 429 with Retry-After: 0
	faultTruncate              // 200 whose body is cut in half
	faultReset                 // 200 whose body errors mid-stream
)

// netWorker is one real easerve (service.New) behind the fault network.
// FailRate in [0, 1] is the chance a sweep request draws a fault; Faults
// cycles over the modes a draw injects.
type netWorker struct {
	FailRate float64
	Faults   []fault
	Delay    time.Duration

	handler http.Handler
	cursor  int         // next entry of Faults; guarded by faultNet.mu
	dead    atomic.Bool // killed: every request fails to dial
	sweeps  atomic.Int32
}

// faultNet is an in-process network of easerve workers, reached through
// the production HTTPTransport with the network as its RoundTripper.
// Fault draws come from a seeded stream, so a seed and a request order
// replay the same failure schedule.
type faultNet struct {
	mu      sync.Mutex
	workers map[string]*netWorker // by base URL
	draw    *rng.RNG

	hits    atomic.Int32 // responses served with X-Cache: hit
	spanned atomic.Int32 // responses carrying X-Trace-Spans
}

var errDialRefused = errors.New("faultnet: dial tcp: connection refused")

// newFaultNet puts a fresh easerve behind each worker base URL and
// returns the network with the transport that reaches it.
func newFaultNet(seed uint64, workers map[string]*netWorker) (*faultNet, *HTTPTransport) {
	for _, w := range workers {
		w.handler = service.New(service.Options{Workers: 2}).Handler()
	}
	n := &faultNet{workers: workers, draw: rng.New(seed)}
	return n, &HTTPTransport{Client: &http.Client{Transport: n}}
}

// RoundTrip serves req on its worker's handler. Only sweep requests draw
// faults; health probes see the worker alive or dead. A worker killed
// while serving loses the response.
func (n *faultNet) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		defer req.Body.Close()
	}
	w := n.workers[req.URL.Scheme+"://"+req.URL.Host]
	if w == nil || w.dead.Load() {
		return nil, errDialRefused
	}
	f := fault(-1) // none
	if req.URL.Path == "/v1/sweep" {
		w.sweeps.Add(1)
		n.mu.Lock()
		if w.FailRate > 0 && n.draw.Float64() < w.FailRate {
			f = w.Faults[w.cursor%len(w.Faults)]
			w.cursor++
		}
		n.mu.Unlock()
	}

	ctx := req.Context()
	rec := httptest.NewRecorder()
	switch f {
	case faultDrop:
		<-ctx.Done()
		return nil, ctx.Err()
	case fault5xx:
		rec.WriteHeader(http.StatusInternalServerError)
	case faultShed:
		rec.Header().Set("Retry-After", "0")
		rec.WriteHeader(http.StatusTooManyRequests)
	default:
		if f == faultDelay && !sleepCtx(ctx, w.Delay) {
			return nil, ctx.Err()
		}
		w.handler.ServeHTTP(rec, req)
	}
	if w.dead.Load() {
		return nil, errDialRefused
	}
	resp := rec.Result()
	if resp.Header.Get("X-Cache") == "hit" {
		n.hits.Add(1)
	}
	if resp.Header.Get(obs.SpanHeader) != "" {
		n.spanned.Add(1)
	}
	half := bytes.NewReader(rec.Body.Bytes()[:rec.Body.Len()/2])
	switch f {
	case faultTruncate:
		resp.Body = io.NopCloser(half)
	case faultReset:
		resp.Body = io.NopCloser(io.MultiReader(half, iotest.ErrReader(errors.New("connection reset by peer"))))
	}
	return resp, nil
}
