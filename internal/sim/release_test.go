package sim

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"github.com/eadvfs/eadvfs/internal/core"
	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/storage"
	"github.com/eadvfs/eadvfs/internal/task"
)

// fuzzExec is the distribution fuzzed tasks may carry; the merge must
// hand every job its task's pointer.
var fuzzExec = &task.ExecSpec{Dist: task.DistUniform, BCRatio: 0.5}

// fuzzTasks decodes a task set from raw bytes, four per task: period,
// offset, ID and a divisor for both, so periods and offsets range over
// fractions that binary floating point cannot represent (1/3, 1/10),
// equal periods make arrivals coincide, and offsets reach past short
// horizons. IDs are unique, may be negative and need not follow the
// order of the set.
func fuzzTasks(data []byte) []task.Task {
	var tasks []task.Task
	for i := 0; i+4 <= len(data) && len(tasks) < 8; i += 4 {
		div := float64(data[i+3]%10 + 1)
		period := float64(data[i]%64+1) / div
		t := task.Task{
			ID:       int(int8(data[i+2]))<<8 | len(tasks),
			Period:   period,
			Deadline: period,
			WCET:     period / 4,
			Offset:   float64(data[i+1]) / div,
		}
		if data[i+3]&1 == 1 {
			t.Exec = fuzzExec
		}
		tasks = append(tasks, t)
	}
	return tasks
}

// checkMerge requires the arena's merged release schedule to equal
// task.ReleaseJobs job by job: every field, unexported state included,
// and the arrival instants bit for bit.
func checkMerge(t *testing.T, a *Arena, tasks []task.Task, horizon float64) {
	t.Helper()
	got := a.mergeReleases(tasks, horizon)
	want := task.ReleaseJobs(tasks, horizon)
	if len(got) != len(want) {
		t.Fatalf("horizon %v: %d jobs, want %d (tasks %+v)", horizon, len(got), len(want), tasks)
	}
	for i := range want {
		g, w := got[i], want[i]
		if *g != *w || math.Float64bits(g.Arrival) != math.Float64bits(w.Arrival) ||
			math.Float64bits(g.Abs) != math.Float64bits(w.Abs) {
			t.Fatalf("horizon %v: job %d is %+v, want %+v (tasks %+v)", horizon, i, *g, *w, tasks)
		}
	}
}

// FuzzReleaseMerge checks the arena's k-way release merge against
// task.ReleaseJobs, the sorting oracle, over arbitrary periods, offsets
// and horizons. One arena serves the set, a subset and the set again, so
// stale buffer contents from a larger schedule would show.
func FuzzReleaseMerge(f *testing.F) {
	f.Add([]byte{}, uint16(100))                                     // empty set
	f.Add([]byte{9, 0, 1, 0, 9, 0, 0, 0, 19, 0, 2, 0}, uint16(999))  // coincident arrivals, IDs out of order
	f.Add([]byte{2, 3, 0, 2, 6, 1, 5, 9, 0, 7, 250, 4}, uint16(377)) // fractional periods and offsets
	f.Add([]byte{4, 255, 0, 0, 5, 40, 1, 0}, uint16(300))            // offset at and past the horizon
	f.Add([]byte{6, 0, 128, 0, 6, 0, 127, 0}, uint16(1234))          // negative IDs, horizon not a period multiple
	f.Fuzz(func(t *testing.T, data []byte, horizonRaw uint16) {
		tasks := fuzzTasks(data)
		horizon := float64(horizonRaw%2000+1) / 10
		a := NewArena()
		checkMerge(t, a, tasks, horizon)
		checkMerge(t, a, tasks[:len(tasks)/2], horizon)
		checkMerge(t, a, tasks, horizon)
	})
}

// rotationConfig is a paper-style run of a given task set.
func rotationConfig(tasks []task.Task, seed uint64, probe obs.Probe) *Config {
	src := energy.NewSolarModel(seed)
	return &Config{
		Horizon:   3000,
		Tasks:     tasks,
		Source:    src,
		Predictor: energy.NewEWMA(0.2),
		Store:     storage.NewIdeal(300),
		CPU:       cpu.XScale(),
		Policy:    core.NewEADVFS(),
		Probe:     probe,
	}
}

// rotationOutput runs cfg on the arena and returns the serialized Result
// and event stream.
func rotationOutput(t *testing.T, a *Arena, tasks []task.Task, seed uint64) []byte {
	t.Helper()
	rec := obs.NewRecorder()
	res, err := a.Run(rotationConfig(tasks, seed, rec))
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(struct {
		Result *Result
		Events []obs.Event
	}{res, rec.Events()})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Runs of task sets A, B, A on one arena — the rotation the engine
// benchmark performs on every op — must each be bit-identical to a run on
// a fresh arena: the release schedule is re-merged per run, so nothing of
// B's schedule may leak into A's second run and vice versa.
func TestArenaTaskSetRotation(t *testing.T) {
	a := paperWorkload(3, 0.6, 5)
	b := paperWorkload(4, 0.8, 7)
	shared := NewArena()
	for i, tasks := range [][]task.Task{a, b, a} {
		seed := uint64(10 + i)
		got := rotationOutput(t, shared, tasks, seed)
		want := rotationOutput(t, NewArena(), tasks, seed)
		if !bytes.Equal(got, want) {
			t.Fatalf("run %d on the shared arena differs from a fresh arena", i)
		}
	}
}
