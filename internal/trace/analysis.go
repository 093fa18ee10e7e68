package trace

import (
	"fmt"
	"math"
	"sort"

	"github.com/eadvfs/eadvfs/internal/obs"
)

// TaskActivity summarizes a task's schedule as recorded: execution share,
// level residency, response-time statistics and jitter. It complements
// sim.Result.PerTask with quantities only derivable from the full trace.
type TaskActivity struct {
	TaskID    int
	BusyTime  float64
	LevelTime map[int]float64 // run time per operating point

	// Response-time statistics over completed jobs.
	Completions  int
	ResponseMin  float64
	ResponseMax  float64
	ResponseMean float64
	// Jitter is the max-min spread of response times — the metric
	// control-loop designers care about.
	Jitter float64

	// Fragments counts the run segments per completed job on average:
	// 1 means jobs run uninterrupted; higher means preemption/stretch
	// phases chop them up.
	Fragments float64
}

// Activity computes per-task activity from the recorded trace.
func (r *Recorder) Activity() []TaskActivity {
	type acc struct {
		busy      float64
		levels    map[int]float64
		segments  int
		responses []float64
	}
	byID := map[int]*acc{}
	get := func(id int) *acc {
		a, ok := byID[id]
		if !ok {
			a = &acc{levels: map[int]float64{}}
			byID[id] = a
		}
		return a
	}
	for _, s := range r.Segments {
		if s.Mode != modeRun || s.TaskID < 0 {
			continue
		}
		a := get(s.TaskID)
		a.busy += s.End - s.Start
		a.levels[s.Level] += s.End - s.Start
		a.segments++
	}
	// Pair completions with arrivals per (task, seq).
	arrivals := map[[2]int]float64{}
	for _, e := range r.Events {
		if e.Kind == obs.KindArrival {
			arrivals[[2]int{e.TaskID, e.JobSeq}] = e.Time
		}
	}
	for _, e := range r.Events {
		if e.Kind != obs.KindCompletion {
			continue
		}
		if at, ok := arrivals[[2]int{e.TaskID, e.JobSeq}]; ok {
			a := get(e.TaskID)
			a.responses = append(a.responses, e.Time-at)
		}
	}

	var out []TaskActivity
	for id, a := range byID {
		ta := TaskActivity{
			TaskID:      id,
			BusyTime:    a.busy,
			LevelTime:   a.levels,
			Completions: len(a.responses),
			ResponseMin: math.Inf(1),
		}
		sum := 0.0
		for _, resp := range a.responses {
			sum += resp
			ta.ResponseMin = math.Min(ta.ResponseMin, resp)
			ta.ResponseMax = math.Max(ta.ResponseMax, resp)
		}
		if n := len(a.responses); n > 0 {
			ta.ResponseMean = sum / float64(n)
			ta.Jitter = ta.ResponseMax - ta.ResponseMin
			ta.Fragments = float64(a.segments) / float64(n)
		} else {
			ta.ResponseMin = 0
		}
		out = append(out, ta)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TaskID < out[j].TaskID })
	return out
}

// ActivityTable renders the activity summary as aligned text.
func (r *Recorder) ActivityTable() string {
	acts := r.Activity()
	if len(acts) == 0 {
		return "(no task activity recorded)\n"
	}
	out := fmt.Sprintf("%-6s %10s %6s %10s %10s %10s %10s\n",
		"task", "busy", "done", "resp-mean", "resp-max", "jitter", "fragments")
	for _, a := range acts {
		out += fmt.Sprintf("%-6d %10.2f %6d %10.2f %10.2f %10.2f %10.2f\n",
			a.TaskID, a.BusyTime, a.Completions, a.ResponseMean, a.ResponseMax, a.Jitter, a.Fragments)
	}
	return out
}
