package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var (
	lowerMs    = metricDef{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}
	higherRate = metricDef{Name: "throughput_ops_s", Unit: "1/s", Better: "higher", Bound: 0.1}
)

func TestJudge(t *testing.T) {
	parent := []float64{10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0}
	for _, c := range []struct {
		name   string
		d      metricDef
		parent []float64
		change []float64
		want   string
	}{
		{"clear gain", lowerMs, parent, scale(parent, 0.8), improved},
		{"gain on a higher-is-better metric", higherRate, parent, scale(parent, 1.2), improved},
		{"noise", lowerMs, parent, []float64{10.1, 9.9, 10.0, 10.2, 9.9, 10.0, 10.1, 9.8, 10.2, 10.0}, withinBound},
		{"small slowdown inside the bound", lowerMs, parent, scale(parent, 1.05), withinBound},
		{"slowdown past the bound", lowerMs, parent, scale(parent, 1.2), regressed},
		{"throughput drop past the bound", higherRate, parent, scale(parent, 0.8), regressed},
		// Every pair a tie: no wins, so no gain, and no change either.
		{"ties", lowerMs, parent, parent, withinBound},
		// Spread wider than the bound and no clean separation.
		{"unresolved", lowerMs, []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 7}, []float64{6, 14, 9, 11, 10, 7, 13, 8, 12, 15}, unresolved},
		// Too few runs to measure a spread.
		{"single run", lowerMs, []float64{10}, []float64{12}, unresolved},
	} {
		if got := judge(c.d, c.parent, c.change); got.verdict != c.want {
			t.Errorf("%s: verdict %q (wins %d/%d, delta %+.3f), want %q", c.name, got.verdict, got.wins, got.pairs, got.delta, c.want)
		}
	}
}

func TestJudgeWideSpreadButSeparated(t *testing.T) {
	// A spread wider than the bound is still decided when every change run
	// reads better than every parent run.
	parent := []float64{20, 30, 25, 35, 28, 22, 33, 26, 31, 24}
	change := scale(parent, 0.3)
	if got := judge(lowerMs, parent, change); got.verdict != improved {
		t.Errorf("verdict %q, want %q", got.verdict, improved)
	}
}

func TestCompareReadsRecords(t *testing.T) {
	dir := t.TempDir()
	parent, change := filepath.Join(dir, "parent"), filepath.Join(dir, "change")
	for _, d := range []string{parent, change} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		writeRecord(t, parent, i, 10+0.01*float64(i))
		writeRecord(t, change, i, 7+0.01*float64(i))
	}
	var out bytes.Buffer
	if err := runCompare(&out, filepath.Join("..", "BENCHMARK.json"), parent, change); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "engine           latency_p50_ms") || !strings.Contains(out.String(), improved) {
		t.Errorf("compare output lacks the improved engine p50 row:\n%s", out.String())
	}
}

func writeRecord(t *testing.T, dir string, round int, p50 float64) {
	t.Helper()
	rec := record{Workload: "engine", Seed: uint64(round + 1), Result: result{
		Correct: true, Attempted: 100,
		Metrics: map[string]measure{"latency_p50_ms": {Value: p50, Unit: "ms"}},
	}}
	if err := writeJSON(filepath.Join(dir, "engine-"+string(rune('a'+round))+".json"), rec); err != nil {
		t.Fatal(err)
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
