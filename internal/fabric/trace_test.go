package fabric

import (
	"context"
	"testing"

	"github.com/eadvfs/eadvfs/internal/obs"
)

// A traced sweep over a healthy pool must produce one coherent trace: a
// single eactl root, a shard span per planned shard, each holding exactly
// one winning attempt whose worker-side request spans share the
// propagated trace ID, down to the engine's experiment phases.
func TestRunSweepEmitsStitchableTrace(t *testing.T) {
	spec := testSpec()
	workers := []string{"http://w0", "http://w1"}
	_, tr := newFaultNet(7, map[string]*netWorker{workers[0]: {}, workers[1]: {}})
	rec := obs.NewRecorder()
	opts := fastOptions(workers, tr)
	opts.Trace = rec
	c, err := newCoordinator(opts, fastLadder)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunSweep(context.Background(), "missrate", spec, testPolicies)
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete != 0 {
		t.Fatalf("healthy sweep incomplete: %d", res.Incomplete)
	}

	spans := rec.Spans()
	tree := obs.StitchSpans(spans)
	if tree.Traces != 1 {
		t.Fatalf("sweep produced %d trace IDs, want 1", tree.Traces)
	}
	if tree.Orphans != 0 {
		t.Fatalf("%d orphaned spans on a healthy pool", tree.Orphans)
	}
	if len(tree.Roots) != 1 || tree.Roots[0].Span.Name != "sweep" || tree.Roots[0].Span.Service != "eactl" {
		t.Fatalf("want single eactl sweep root, got %+v", tree.Roots)
	}

	root := tree.Roots[0]
	shards := 0
	for _, sh := range root.Children {
		if sh.Span.Name != "shard" {
			continue
		}
		shards++
		wins := 0
		for _, a := range sh.Children {
			if a.Span.Name != "attempt" {
				continue
			}
			if a.Span.Attrs["outcome"] == "ok" {
				wins++
				// The winning attempt carries the worker's spans:
				// request:sweep with cache, admission and engine
				// children, and the shard's phases under engine.
				var reqNode *obs.SpanNode
				for _, w := range a.Children {
					if w.Span.Name == "request:sweep" && w.Span.Service == "easerve" {
						reqNode = w
					}
				}
				if reqNode == nil {
					t.Fatalf("winning attempt of shard %s has no worker request span", sh.Span.Attrs["shard"])
				}
				got := map[string]*obs.SpanNode{}
				for _, cch := range reqNode.Children {
					got[cch.Span.Name] = cch
				}
				if got["cache"] == nil || got["admission"] == nil || got["engine"] == nil {
					t.Fatalf("worker request span missing cache/admission/engine children: %v", got)
				}
				phases := map[string]bool{}
				for _, ph := range got["engine"].Children {
					phases[ph.Span.Name] = true
				}
				if !phases["plan"] || !phases["simulate"] || !phases["aggregate"] {
					t.Fatalf("worker engine span missing plan/simulate/aggregate children: %v", phases)
				}
			}
		}
		if wins != 1 {
			t.Fatalf("shard %s has %d winning attempts, want 1", sh.Span.Attrs["shard"], wins)
		}
	}
	if shards != len(res.Shards) {
		t.Fatalf("trace has %d shard spans, plan had %d", shards, len(res.Shards))
	}
}

// With tracing disabled (Options.Trace nil) attempts carry no
// traceparent, so the worker serves untraced and returns no spans.
func TestRunSweepUntracedEmitsNoSpans(t *testing.T) {
	spec := testSpec()
	workers := []string{"http://w0"}
	fnet, tr := newFaultNet(3, map[string]*netWorker{workers[0]: {}})
	c, err := newCoordinator(fastOptions(workers, tr), fastLadder)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunSweep(context.Background(), "missrate", spec, testPolicies)
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete != 0 {
		t.Fatalf("untraced sweep incomplete: %d", res.Incomplete)
	}
	if n := fnet.spanned.Load(); n != 0 {
		t.Fatalf("%d worker responses carried %s on an untraced sweep", n, obs.SpanHeader)
	}
}
