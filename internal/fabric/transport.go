package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/eadvfs/eadvfs/internal/obs"
)

// Envelope is the worker response a Transport returns on success: the
// /v1/sweep JSON envelope (internal/service response) with the worker's
// cache key and the raw result payload.
type Envelope struct {
	Digest string          `json:"config_digest"`
	Result json.RawMessage `json:"result"`

	// Spans carries the worker-side spans of a traced request, decoded
	// from the X-Trace-Spans response header. Transport metadata, not
	// part of the response body (which stays byte-identical under
	// tracing), hence excluded from the JSON form.
	Spans []obs.Span `json:"-"`
}

// Transport delivers one sharded sweep request to a worker. body is the
// canonical service.SweepRequest JSON; its digest.Compact is both the
// shard's routing key and the worker's cache key. HTTPTransport speaks
// it over the easerve protocol.
type Transport interface {
	Do(ctx context.Context, worker string, body []byte) (*Envelope, error)
	// Healthy probes the worker's /healthz; nil means routable.
	Healthy(ctx context.Context, worker string) error
}

// PermanentError marks a worker response retrying cannot fix: the request
// itself was refused (client-class 4xx). The coordinator fails the shard
// immediately instead of burning retries, and the worker's breaker is not
// penalized — the worker did its job.
type PermanentError struct {
	Worker string
	Status int
	Body   string
}

func (e *PermanentError) Error() string {
	return fmt.Sprintf("fabric: %s refused request: %d %s", e.Worker, e.Status, e.Body)
}

// IsPermanent reports whether err is terminal for the whole shard.
func IsPermanent(err error) bool {
	var pe *PermanentError
	return errors.As(err, &pe)
}

// ShedError marks a load-shed response (429 overload, 503 draining): the
// worker is alive but refusing work, and RetryAfter carries its backoff
// hint, which the coordinator honors as a floor on its own backoff.
type ShedError struct {
	Worker     string
	Status     int
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("fabric: %s shed request: %d (retry after %s)", e.Worker, e.Status, e.RetryAfter)
}

// HTTPTransport speaks the easerve protocol: POST /v1/sweep for shards,
// GET /healthz for probes. Worker addresses are base URLs
// ("http://host:8080").
type HTTPTransport struct {
	// Client defaults to a dedicated client with no global timeout —
	// per-attempt budgets come from the coordinator's context.
	Client *http.Client
}

func (t *HTTPTransport) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return http.DefaultClient
}

// maxErrorBody bounds how much of a failed response we read back for the
// error message; a worker returning garbage must not balloon coordinator
// memory.
const maxErrorBody = 4 << 10

func (t *HTTPTransport) Do(ctx context.Context, worker string, body []byte) (*Envelope, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	// Propagate trace context: when the attempt's context carries a span
	// (coordinator tracing on), the worker sees a standard traceparent
	// header and returns its own spans in X-Trace-Spans.
	if sc, ok := obs.SpanFromContext(ctx); ok {
		req.Header.Set("traceparent", sc.Traceparent())
	}
	resp, err := t.client().Do(req)
	if err != nil {
		return nil, err // transport failure: retryable
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		var env Envelope
		if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&env); err != nil {
			// Malformed or truncated body (mid-stream disconnect):
			// retryable — another worker can serve the shard.
			return nil, fmt.Errorf("fabric: %s sent malformed response: %w", worker, err)
		}
		if env.Digest == "" || len(env.Result) == 0 {
			return nil, fmt.Errorf("fabric: %s sent incomplete envelope", worker)
		}
		// Worker spans are best-effort observability: a corrupt header
		// never fails a shard that computed correctly.
		env.Spans, _ = obs.DecodeSpanHeader(resp.Header.Get(obs.SpanHeader))
		return &env, nil
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		return nil, &ShedError{Worker: worker, Status: resp.StatusCode, RetryAfter: retryAfterOf(resp)}
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		excerpt, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
		return nil, &PermanentError{Worker: worker, Status: resp.StatusCode, Body: string(bytes.TrimSpace(excerpt))}
	default: // 5xx and anything exotic: the worker is unwell, retryable
		return nil, fmt.Errorf("fabric: %s returned %d", worker, resp.StatusCode)
	}
}

func (t *HTTPTransport) Healthy(ctx context.Context, worker string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, worker+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := t.client().Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, maxErrorBody))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fabric: %s healthz: %d", worker, resp.StatusCode)
	}
	return nil
}

// retryAfterOf parses a Retry-After header in seconds form; zero when
// absent or unparsable.
func retryAfterOf(resp *http.Response) time.Duration {
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}
