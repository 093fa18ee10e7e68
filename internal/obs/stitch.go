package obs

// Span-tree stitching: reassembling the spans of one distributed sweep —
// coordinator spans plus the worker spans shipped back in X-Trace-Spans
// headers — into trees (DESIGN.md §15).

import (
	"sort"
	"time"
)

// SpanNode is one stitched span with its resolved children.
type SpanNode struct {
	Span     Span
	Children []*SpanNode

	// Orphan marks a span whose Parent ID was non-zero but absent from
	// the input (e.g. the parent was lost with a SIGKILLed worker).
	// Orphans are promoted to roots so no data disappears.
	Orphan bool

	// Skew is the wall-clock disagreement detected against the parent:
	// how far this span's recorded start precedes its parent's start.
	// Parent/child causality makes a negative offset impossible on one
	// clock, so a positive Skew means the emitting processes' clocks
	// differ by at least that much. Zero when consistent or for roots.
	Skew time.Duration
}

// SpanTree is the stitched forest for one or more traces.
type SpanTree struct {
	Roots   []*SpanNode
	Spans   int // total spans stitched (after dedup)
	Orphans int // spans promoted to root because their parent is missing
	Traces  int // distinct trace IDs seen
}

// StitchSpans links spans by (trace, parent) into a forest. Duplicate
// (trace, span-ID) pairs keep the first occurrence — a hedged attempt's
// spans can arrive twice when both the winner and the loser responded.
// Children are ordered by start time (then name, then ID), which is
// deterministic even across skewed clocks.
func StitchSpans(spans []Span) *SpanTree {
	type key struct {
		t TraceID
		s SpanID
	}
	nodes := make(map[key]*SpanNode, len(spans))
	order := make([]*SpanNode, 0, len(spans))
	traces := make(map[TraceID]struct{})
	for _, sp := range spans {
		k := key{sp.Trace, sp.ID}
		if _, dup := nodes[k]; dup || sp.ID.IsZero() {
			continue
		}
		n := &SpanNode{Span: sp}
		nodes[k] = n
		order = append(order, n)
		traces[sp.Trace] = struct{}{}
	}

	t := &SpanTree{Spans: len(order), Traces: len(traces)}
	for _, n := range order {
		sp := n.Span
		if sp.Parent.IsZero() {
			t.Roots = append(t.Roots, n)
			continue
		}
		parent, ok := nodes[key{sp.Trace, sp.Parent}]
		if !ok || parent == n {
			n.Orphan = true
			t.Orphans++
			t.Roots = append(t.Roots, n)
			continue
		}
		if d := parent.Span.Start.Sub(sp.Start); d > 0 {
			n.Skew = d
		}
		parent.Children = append(parent.Children, n)
	}

	sortNodes(t.Roots)
	for _, n := range order {
		sortNodes(n.Children)
	}
	return t
}

func sortNodes(ns []*SpanNode) {
	sort.Slice(ns, func(i, j int) bool {
		a, b := ns[i].Span, ns[j].Span
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.ID.String() < b.ID.String()
	})
}

// Walk visits every node depth-first, roots in order, passing the nesting
// depth (0 for roots).
func (t *SpanTree) Walk(fn func(n *SpanNode, depth int)) {
	var rec func(n *SpanNode, depth int)
	rec = func(n *SpanNode, depth int) {
		fn(n, depth)
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	for _, r := range t.Roots {
		rec(r, 0)
	}
}
