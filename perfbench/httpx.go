package main

import (
	"net/http"
	"sync"
	"time"
)

// maxConns caps every benchmark HTTP client's connections per host at the
// host's CPU count, so the load stays within the two cores it measures.
const maxConns = 2

// newClient returns an HTTP client capped at maxConns connections per host.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		},
	}
}

// requestHeader carries the benchmark's request number to the server-side
// timer, so client and server times of one request can be paired.
const requestHeader = "X-Bench-Request"

// handled is one request as the server-side timer saw it.
type handled struct {
	id     string // requestHeader, or the traceparent when absent
	path   string
	stream bool   // ?events=1
	cache  string // X-Cache of the response
	dur    time.Duration
}

// handlerTimer wraps a server's http.Handler and records every request's
// time in the handler and its cache outcome.
type handlerTimer struct {
	next http.Handler
	mu   sync.Mutex
	recs []handled
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	dur := time.Since(start)
	id := r.Header.Get(requestHeader)
	if id == "" {
		id = r.Header.Get("traceparent")
	}
	rec := handled{
		id:     id,
		path:   r.URL.Path,
		stream: r.URL.Query().Get("events") == "1",
		cache:  w.Header().Get("X-Cache"),
		dur:    dur,
	}
	h.mu.Lock()
	h.recs = append(h.recs, rec)
	h.mu.Unlock()
}

// take returns and clears the records so far.
func (h *handlerTimer) take() []handled {
	h.mu.Lock()
	defer h.mu.Unlock()
	recs := h.recs
	h.recs = nil
	return recs
}
