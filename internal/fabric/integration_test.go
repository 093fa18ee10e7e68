package fabric

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/eadvfs/eadvfs/internal/service"
)

// killableWorker is a real easerve service behind an httptest listener
// with a kill switch: once tripped, the current connection is severed
// mid-request (no status line, no clean close — the TCP-reset view of
// SIGKILL) and every later connection is dropped the same way.
type killableWorker struct {
	ts     *httptest.Server
	dead   atomic.Bool
	sweeps atomic.Int32
}

func newKillableWorker(t *testing.T) *killableWorker {
	t.Helper()
	kw := &killableWorker{}
	svc := service.New(service.Options{Workers: 2})
	inner := svc.Handler()
	kw.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if kw.dead.Load() {
			sever(w)
			return
		}
		if r.URL.Path == "/v1/sweep" {
			kw.sweeps.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(kw.ts.Close)
	return kw
}

// sever drops the client connection without any HTTP response.
func sever(w http.ResponseWriter) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		panic("integration test requires a hijackable connection")
	}
	conn, _, err := hj.Hijack()
	if err != nil {
		return
	}
	conn.Close()
}

// The end-to-end contract over real HTTP: three easerve workers serve a
// coordinated sweep, one is killed mid-sweep (connections severed, no
// goodbye), and the merged result is still byte-identical to a
// single-node run with zero incomplete shards. Run under -race.
func TestIntegrationKillWorkerMidSweep(t *testing.T) {
	spec := testSpec()
	w0, w1, victim := newKillableWorker(t), newKillableWorker(t), newKillableWorker(t)
	workers := []string{w0.ts.URL, w1.ts.URL, victim.ts.URL}

	opts := Options{
		Workers:         workers,
		Transport:       &HTTPTransport{Client: &http.Client{}},
		ShardsPerWorker: 2,
		MaxAttempts:     6,
		HedgeAfter:      250 * time.Millisecond,
		RequestTimeout:  10 * time.Second,
	}
	c, err := newCoordinator(opts, ladder{
		baseBackoff: 2 * time.Millisecond,
		maxBackoff:  20 * time.Millisecond,
		threshold:   3,
		cooldown:    50 * time.Millisecond,
		probe:       10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Kill the victim the moment it has work in hand, so in-flight
	// requests die mid-stream and the shards must reroute.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if victim.sweeps.Load() >= 1 {
				break
			}
			time.Sleep(500 * time.Microsecond)
		}
		victim.dead.Store(true)
		victim.ts.CloseClientConnections()
	}()

	res, err := c.RunSweep(context.Background(), "missrate", spec, testPolicies)
	wg.Wait()
	if err != nil {
		t.Fatalf("RunSweep with a killed worker: %v", err)
	}
	if res.Incomplete != 0 || res.Merged.MissingCells != 0 {
		t.Fatalf("sweep incomplete: %d shards, %d cells", res.Incomplete, res.Merged.MissingCells)
	}
	if got, want := mergedJSON(t, res), singleNodeJSON(t, "missrate", spec, testPolicies); got != want {
		t.Fatal("merged result differs from single-node run after mid-sweep kill")
	}
	// Nobody reports the dead worker as their server after the kill —
	// every shard outcome names a live worker or predates the kill with a
	// complete response (which is fine either way); the real assertion is
	// above: complete, byte-identical coverage.
	for i, sh := range res.Shards {
		if sh.Err != nil {
			t.Fatalf("shard %d carries error %v", i, sh.Err)
		}
	}
}

// Distributed remaining-energy sweeps hold the same byte-identity over
// real HTTP (the curve merge path, not just integer tallies).
func TestIntegrationRemainingEnergyByteIdentical(t *testing.T) {
	spec := testSpec()
	w0, w1 := newKillableWorker(t), newKillableWorker(t)
	opts := Options{
		Workers:        []string{w0.ts.URL, w1.ts.URL},
		Transport:      &HTTPTransport{Client: &http.Client{}},
		RequestTimeout: 30 * time.Second,
		HedgeAfter:     -1,
	}
	c, err := newCoordinator(opts, ladder{baseBackoff, maxBackoff, breakerThreshold, breakerCooldown, -1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunSweep(context.Background(), "remaining", spec, testPolicies)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mergedJSON(t, res), singleNodeJSON(t, "remaining", spec, testPolicies); got != want {
		t.Fatal("distributed remaining-energy result differs from single-node run")
	}
}
