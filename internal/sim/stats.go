package sim

import (
	"slices"

	"github.com/eadvfs/eadvfs/internal/metrics"
	"github.com/eadvfs/eadvfs/internal/task"
)

// TaskStats is the per-task breakdown of a run: which tasks actually
// suffer the deadline misses, and how long their jobs take to come back.
// Response times are measured from release to completion and include only
// on-time completions (a dropped job has no response).
type TaskStats struct {
	TaskID   int
	Released int
	Finished int
	Missed   int

	ResponseMean float64
	ResponseMax  float64

	resp metrics.Welford
}

// taskTable accumulates per-task statistics during a run, in a slice kept
// sorted by task ID. An entry is inserted the first time its task is seen,
// so the table holds exactly the tasks the run touched.
type taskTable struct {
	stats []*TaskStats
}

func newTaskTable() *taskTable { return &taskTable{} }

// reset empties the table for arena reuse. The *TaskStats values are NOT
// recycled: table() hands them to Result.PerTask, where callers retain
// them past the run, so each run must mint fresh ones.
func (tt *taskTable) reset() {
	clear(tt.stats)
	tt.stats = tt.stats[:0]
}

// get returns the stats of task id, inserting a fresh entry at its sorted
// position on first sight.
func (tt *taskTable) get(id int) *TaskStats {
	lo, hi := 0, len(tt.stats)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if tt.stats[m].TaskID < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(tt.stats) && tt.stats[lo].TaskID == id {
		return tt.stats[lo]
	}
	s := &TaskStats{TaskID: id}
	tt.stats = slices.Insert(tt.stats, lo, s)
	return s
}

func (tt *taskTable) released(j *task.Job) { tt.get(j.TaskID).Released++ }

func (tt *taskTable) finished(j *task.Job, now float64) {
	s := tt.get(j.TaskID)
	s.Finished++
	r := now - j.Arrival
	s.resp.Add(r)
	if r > s.ResponseMax {
		s.ResponseMax = r
	}
}

func (tt *taskTable) missed(j *task.Job) { tt.get(j.TaskID).Missed++ }

// table returns a copy of the stats, sorted by task ID, with derived
// fields filled.
func (tt *taskTable) table() []*TaskStats {
	out := make([]*TaskStats, len(tt.stats))
	for i, s := range tt.stats {
		s.ResponseMean = s.resp.Mean()
		out[i] = s
	}
	return out
}
