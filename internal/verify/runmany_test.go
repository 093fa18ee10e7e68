package verify

import (
	"bytes"
	"flag"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/sim"
)

var runManyBatch = flag.Int("verify.batch", 8,
	"configs per shared-arena batch in the batched-vs-single differential")

// runManyCounter windows the seed space per invocation, like runCounter for
// TestDifferential: `-count=K` scans K disjoint windows.
var runManyCounter uint64

// runManySide is one side's observation of a run: everything the batched
// engine could plausibly corrupt through arena reuse — the Result, the
// error, the decision audits and event records, and the serialized JSONL
// stream (which additionally pins field-by-field encoding of the records).
type runManySide struct {
	res   *sim.Result
	err   error
	rec   *obs.Recorder
	jw    *obs.JSONLWriter
	jsonl bytes.Buffer
}

// instrument attaches this side's probes to cfg.
func (s *runManySide) instrument(cfg *sim.Config) *sim.Config {
	s.rec = obs.NewRecorder()
	s.jw = obs.NewJSONLWriter(&s.jsonl)
	cfg.Probe = obs.Multi(s.rec, s.jw)
	return cfg
}

// flush drains the buffered JSONL writer.
func (s *runManySide) flush(t *testing.T) {
	t.Helper()
	if err := s.jw.Flush(); err != nil {
		t.Fatalf("jsonl flush: %v", err)
	}
}

// TestRunManyMatchesRunOne is the batched-execution differential: for every
// random spec, one run in a batch executed back to back on one
// sim.NewArena() must be bit-identical to an independent sim.Run of an
// identically-built config — same Result fields, same error,
// same decision audits and event records, and byte-identical JSONL streams.
// Any state leaking across a reused arena (release buffers, deadline
// heap, ready queue, stats table) diverges here.
func TestRunManyMatchesRunOne(t *testing.T) {
	n := *verifyN
	if *quick {
		n = 200
	}
	batch := *runManyBatch
	if batch < 1 {
		batch = 1
	}
	window := atomic.AddUint64(&runManyCounter, 1) - 1
	base := *verifySeed + window*uint64(n)
	t.Logf("batched differential: %d specs from seed %d, batches of %d", n, base, batch)

	for start := 0; start < n; start += batch {
		size := batch
		if start+size > n {
			size = n - start
		}
		first := base + uint64(start)
		t.Run(fmt.Sprintf("seeds=%d+%d", first, size), func(t *testing.T) {
			t.Parallel()
			specs := make([]*Spec, size)
			singles := make([]runManySide, size)
			batched := make([]runManySide, size)
			cfgs := make([]*sim.Config, size)
			for i := range specs {
				specs[i] = RandomSpec(first + uint64(i))
				// Two independent materializations of the same spec: the
				// single-run side consumes one, the batch the other.
				one, _, err := specs[i].Pair()
				if err != nil {
					t.Fatalf("seed %d: %v", first+uint64(i), err)
				}
				many, _, err := specs[i].Pair()
				if err != nil {
					t.Fatalf("seed %d: %v", first+uint64(i), err)
				}
				singles[i].instrument(one)
				singles[i].res, singles[i].err = sim.Run(one)
				singles[i].flush(t)
				cfgs[i] = batched[i].instrument(many)
			}
			arena := sim.NewArena()
			for i, cfg := range cfgs {
				batched[i].res, batched[i].err = arena.Run(cfg)
				batched[i].flush(t)
			}
			for i := range specs {
				compareRunManySides(t, specs[i], &batched[i], &singles[i])
			}
		})
	}
}

func compareRunManySides(t *testing.T, spec *Spec, got, want *runManySide) {
	t.Helper()
	var diffs []string
	switch {
	case (got.err == nil) != (want.err == nil):
		diffs = append(diffs, fmt.Sprintf("error: %v != %v", got.err, want.err))
	case got.err != nil && got.err.Error() != want.err.Error():
		diffs = append(diffs, fmt.Sprintf("error: %q != %q", got.err, want.err))
	}
	if (got.res == nil) != (want.res == nil) {
		diffs = append(diffs, fmt.Sprintf("result presence: %v != %v", got.res != nil, want.res != nil))
	} else if got.res != nil {
		bitDiff("Result", reflect.ValueOf(*got.res), reflect.ValueOf(*want.res), &diffs)
	}
	bitDiff("Decisions", reflect.ValueOf(got.rec.Decisions()), reflect.ValueOf(want.rec.Decisions()), &diffs)
	bitDiff("Events", reflect.ValueOf(got.rec.Events()), reflect.ValueOf(want.rec.Events()), &diffs)
	if !bytes.Equal(got.jsonl.Bytes(), want.jsonl.Bytes()) {
		diffs = append(diffs, fmt.Sprintf("jsonl: %d-byte stream != %d-byte stream",
			got.jsonl.Len(), want.jsonl.Len()))
	}
	if len(diffs) > 0 {
		t.Fatalf("shared-arena run diverged from RunOne on seed %d (policy=%s predictor=%s source=%s):\n  %s",
			spec.Seed, spec.Policy, spec.Predictor, spec.Source.Kind,
			strings.Join(diffs, "\n  "))
	}
}
