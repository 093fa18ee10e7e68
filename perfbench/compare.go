package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Verdicts of -compare, after the choosing-metrics rules: a change
// improved a metric only when it wins at least nine pairs in ten and the
// medians differ by more than the parent's own spread; a metric whose
// run-to-run spread is wider than its bound is unresolved unless every
// change run reads better than every parent run.
const (
	improved    = "improved"
	withinBound = "within bound"
	regressed   = "regressed"
	unresolved  = "unresolved"
)

// judgement is the comparison of one metric of one workload.
type judgement struct {
	verdict      string
	wins, pairs  int
	parentMedian float64
	changeMedian float64
	delta        float64 // relative change of the median, signed so that positive is worse
}

// better reports whether a reads better than b under d.
func better(d metricDef, a, b float64) bool {
	if d.Better == "higher" {
		return a > b
	}
	return a < b
}

// judge compares parent and change runs of one metric. Runs pair up in
// order (round i of the parent with round i of the change); ties count
// for neither side.
func judge(d metricDef, parent, change []float64) judgement {
	j := judgement{pairs: min(len(parent), len(change))}
	for i := 0; i < j.pairs; i++ {
		if better(d, change[i], parent[i]) {
			j.wins++
		}
	}
	j.parentMedian, j.changeMedian = median(parent), median(change)
	j.delta = (j.changeMedian - j.parentMedian) / math.Abs(j.parentMedian)
	if d.Better == "higher" {
		j.delta = -j.delta
	}
	parentIQR := iqr(parent)
	spread := math.NaN() // one run on a side has no spread to judge by
	if len(parent) > 1 && len(change) > 1 {
		spread = math.Max(parentIQR/math.Abs(j.parentMedian), iqr(change)/math.Abs(j.changeMedian))
	}
	allBetter := len(parent) > 0 && len(change) > 0
	for _, c := range change {
		for _, p := range parent {
			if !better(d, c, p) {
				allBetter = false
			}
		}
	}
	switch {
	case j.pairs > 0 && 10*j.wins >= 9*j.pairs &&
		math.Abs(j.changeMedian-j.parentMedian) > parentIQR && better(d, j.changeMedian, j.parentMedian):
		j.verdict = improved
	case !(spread <= d.Bound) && !allBetter: // a NaN spread (too few runs) is unresolved too
		j.verdict = unresolved
	case j.delta > d.Bound:
		j.verdict = regressed
	default:
		j.verdict = withinBound
	}
	return j
}

// loadRecords reads every -json record in dir, keeps the untraced ones and
// groups them by workload, each group in file-name order.
func loadRecords(dir string) (map[string][]record, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	out := map[string][]record{}
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !rec.Trace {
			out[rec.Workload] = append(out[rec.Workload], rec)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced -json records", dir)
	}
	return out, nil
}

// values returns one metric's value from every record that has it.
func values(recs []record, name string) []float64 {
	var xs []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// runCompare prints the -compare table: one row per workload and
// end-to-end metric, each side's median and quartiles with its run count,
// the pairs the change won, and the verdict.
func runCompare(w io.Writer, benchPath, parentDir, changeDir string) error {
	b, err := loadBenchmark(benchPath)
	if err != nil {
		return err
	}
	parent, err := loadRecords(parentDir)
	if err != nil {
		return err
	}
	change, err := loadRecords(changeDir)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s %-17s %28s %28s %8s %6s  %s\n", "workload", "metric", "parent median [q1 q3] n", "change median [q1 q3] n", "delta", "wins", "verdict")
	for _, wl := range b.Workloads {
		p, c := parent[wl.Name], change[wl.Name]
		if len(p) == 0 || len(c) == 0 {
			fmt.Fprintf(w, "%-16s no runs on one side (parent %d, change %d)\n", wl.Name, len(p), len(c))
			continue
		}
		for _, d := range b.EndToEnd {
			pv, cv := values(p, d.Name), values(c, d.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			j := judge(d, pv, cv)
			fmt.Fprintf(w, "%-16s %-17s %28s %28s %+7.1f%% %3d/%-2d  %s\n",
				wl.Name, d.Name, summary(pv), summary(cv), 100*j.delta, j.wins, j.pairs, j.verdict)
		}
		pf, cf := failures(p), failures(c)
		if cf > pf {
			fmt.Fprintf(w, "%-16s more failed ops on the change (%d) than on the parent (%d): no gain counts\n", wl.Name, cf, pf)
		}
	}
	return nil
}

func failures(recs []record) int {
	n := 0
	for _, r := range recs {
		n += r.Result.Failed
		if !r.Result.Correct {
			n++
		}
	}
	return n
}

// summary renders a sample as "median [q1 q3] n".
func summary(xs []float64) string {
	q := quantiles(xs, 4)
	if len(q) < 3 {
		return fmt.Sprintf("%.4g n=%d", median(xs), len(xs))
	}
	return fmt.Sprintf("%.4g [%.4g %.4g] n=%d", q[1], q[0], q[2], len(xs))
}
