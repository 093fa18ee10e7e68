package obs

import (
	"testing"
	"time"
)

// mkSpan builds a test span with deterministic-ish structure; IDs come
// from the real generator so validity invariants hold.
func mkSpan(trace TraceID, parent SpanID, name, service string, start time.Time, d time.Duration, attrs map[string]string) Span {
	return Span{
		Trace: trace, ID: NewSpanID(), Parent: parent,
		Name: name, Service: service, Start: start, Duration: d, Attrs: attrs,
	}
}

func TestStitchSpansBuildsTree(t *testing.T) {
	trace := NewTraceID()
	base := time.Unix(1000, 0)
	root := mkSpan(trace, SpanID{}, "sweep", "eactl", base, 10*time.Second, nil)
	shard := mkSpan(trace, root.ID, "shard", "eactl", base.Add(time.Second), 8*time.Second, nil)
	attempt := mkSpan(trace, shard.ID, "attempt", "eactl", base.Add(2*time.Second), 6*time.Second, nil)
	// Deliberately shuffled input order: stitching must not depend on it.
	tree := StitchSpans([]Span{attempt, root, shard})
	if tree.Spans != 3 || tree.Traces != 1 || tree.Orphans != 0 {
		t.Fatalf("tree stats: %d spans, %d traces, %d orphans", tree.Spans, tree.Traces, tree.Orphans)
	}
	if len(tree.Roots) != 1 || tree.Roots[0].Span.ID != root.ID {
		t.Fatalf("want single root %s, got %+v", root.ID, tree.Roots)
	}
	n := tree.Roots[0]
	if len(n.Children) != 1 || n.Children[0].Span.ID != shard.ID {
		t.Fatalf("shard not under root")
	}
	if len(n.Children[0].Children) != 1 || n.Children[0].Children[0].Span.ID != attempt.ID {
		t.Fatalf("attempt not under shard")
	}
}

// A span whose parent never arrived (worker SIGKILLed before responding)
// must surface as an orphaned root, not vanish.
func TestStitchSpansOrphans(t *testing.T) {
	trace := NewTraceID()
	base := time.Unix(1000, 0)
	lost := NewSpanID() // parent that never arrived
	orphan := mkSpan(trace, lost, "engine", "easerve", base, time.Second, nil)
	root := mkSpan(trace, SpanID{}, "sweep", "eactl", base, 2*time.Second, nil)
	tree := StitchSpans([]Span{orphan, root})
	if tree.Orphans != 1 {
		t.Fatalf("orphans = %d, want 1", tree.Orphans)
	}
	var found *SpanNode
	for _, r := range tree.Roots {
		if r.Span.ID == orphan.ID {
			found = r
		}
	}
	if found == nil || !found.Orphan || found.Span.Parent != lost {
		t.Fatalf("orphan span not promoted to flagged root: %+v", tree.Roots)
	}
	for _, r := range tree.Roots {
		if r.Span.ID == root.ID && (r.Orphan || r.Skew != 0) {
			t.Fatalf("true root flagged: orphan %v, skew %s", r.Orphan, r.Skew)
		}
	}
}

// A worker whose wall clock runs behind the coordinator's produces child
// spans that "start before" their parent; the stitcher must keep the
// structure and flag the skew instead of trusting either clock.
func TestStitchSpansClockSkew(t *testing.T) {
	trace := NewTraceID()
	base := time.Unix(1000, 0)
	parent := mkSpan(trace, SpanID{}, "attempt", "eactl", base, 5*time.Second, nil)
	// Worker clock 2s behind: its span starts "before" its parent.
	child := mkSpan(trace, parent.ID, "request:sweep", "easerve", base.Add(-2*time.Second), time.Second, nil)
	tree := StitchSpans([]Span{parent, child})
	if len(tree.Roots) != 1 || len(tree.Roots[0].Children) != 1 {
		t.Fatalf("skewed child detached from parent: %+v", tree.Roots)
	}
	n := tree.Roots[0].Children[0]
	if n.Skew != 2*time.Second || n.Orphan {
		t.Fatalf("skewed child: skew %s, orphan %v; want 2s, false", n.Skew, n.Orphan)
	}
	if tree.Roots[0].Skew != 0 {
		t.Fatalf("root carries skew %s", tree.Roots[0].Skew)
	}
}

// A hedged loser cancelled mid-flight emits its attempt span from the
// coordinator; if the loser's response still arrived, the worker spans
// can show up twice. Dedup must keep the tree sane, and the cancelled
// attempt must remain visible with its outcome.
func TestStitchSpansHedgedLoser(t *testing.T) {
	trace := NewTraceID()
	base := time.Unix(1000, 0)
	shard := mkSpan(trace, SpanID{}, "shard", "eactl", base, 4*time.Second, nil)
	winner := mkSpan(trace, shard.ID, "attempt", "eactl", base, 3*time.Second,
		map[string]string{"outcome": "ok", "hedge": "false"})
	loser := mkSpan(trace, shard.ID, "attempt", "eactl", base.Add(time.Second), time.Second,
		map[string]string{"outcome": "cancelled", "hedge": "true"})
	workerSpan := mkSpan(trace, winner.ID, "request:sweep", "easerve", base, 2*time.Second, nil)
	// The winner's worker spans arrive once via the winning response and
	// again via a late loser response that duplicated the header.
	tree := StitchSpans([]Span{shard, winner, loser, workerSpan, workerSpan})
	if tree.Spans != 4 {
		t.Fatalf("dedup failed: %d spans, want 4", tree.Spans)
	}
	root := tree.Roots[0]
	if len(root.Children) != 2 {
		t.Fatalf("shard has %d attempts, want 2", len(root.Children))
	}
	var sawCancelled bool
	tree.Walk(func(n *SpanNode, depth int) {
		if n.Span.Attrs["outcome"] == "cancelled" {
			sawCancelled = true
			if len(n.Children) != 0 {
				t.Fatalf("cancelled loser acquired children: %+v", n.Children)
			}
		}
	})
	if !sawCancelled {
		t.Fatal("cancelled hedge attempt missing from tree")
	}
}
